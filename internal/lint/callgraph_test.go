package lint

import "testing"

// TestCallGraphFixture pins the node set, edge counts and per-site
// resolution of the cg fixture, so a change in graph construction shows
// up as a concrete diff rather than a silently different analysis.
func TestCallGraphFixture(t *testing.T) {
	pkgs, _ := loadCase(t, "cg")
	g := BuildCallGraph(pkgs)

	wantNodes := []string{"cg.A", "cg.B", "cg.C", "cg.(T).M", "cg.(T).N", "cg.Dyn"}
	nodes := g.Nodes()
	if len(nodes) != len(wantNodes) {
		t.Fatalf("got %d nodes, want %d", len(nodes), len(wantNodes))
	}
	byName := map[string]*CallNode{}
	for i, n := range nodes {
		if n.Name() != wantNodes[i] {
			t.Errorf("node %d = %s, want %s (declaration order)", i, n.Name(), wantNodes[i])
		}
		byName[n.Name()] = n
	}

	// Callee names per call site, "" for unresolved.
	wantEdges := map[string][]string{
		"cg.A":     {"cg.B", "cg.B", "cg.C"},
		"cg.B":     {"cg.C", "cg.C"},
		"cg.C":     nil,
		"cg.(T).M": {"cg.A"},
		"cg.(T).N": {"cg.(T).M"},
		"cg.Dyn":   {""},
	}
	total := 0
	for name, want := range wantEdges {
		n := byName[name]
		if n == nil {
			t.Fatalf("missing node %s", name)
		}
		if len(n.Calls) != len(want) {
			t.Fatalf("%s: got %d call sites, want %d", name, len(n.Calls), len(want))
		}
		for i, w := range want {
			got := n.Calls[i]
			gotCallee := ""
			if got.Callee != nil {
				gotCallee = got.Callee.Name()
			}
			if gotCallee != w {
				t.Errorf("%s call %d = %q, want %q", name, i, gotCallee, w)
			}
		}
		total += len(want)
	}
	if total != 8 {
		t.Errorf("fixture edge total = %d, want 8", total)
	}
}
