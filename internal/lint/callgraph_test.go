package lint

import (
	"go/ast"
	"testing"
)

// TestCallGraphFixture pins the node set of the cg fixture and how
// CalleeObject and NodeOf resolve each of its call sites, so a change in
// either shows up as a concrete diff rather than a silently different
// analysis.
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
		// The fixture has no function literals, so every call expression
		// in the body, go and defer operands included, is a site.
		var got []string
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				callee := ""
				if c := g.NodeOf(CalleeObject(n.Pkg.Info, call)); c != nil {
					callee = c.Name()
				}
				got = append(got, callee)
			}
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: got %d call sites, want %d", name, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != w {
				t.Errorf("%s call %d = %q, want %q", name, i, got[i], w)
			}
		}
		total += len(want)
	}
	if total != 8 {
		t.Errorf("fixture edge total = %d, want 8", total)
	}
}
