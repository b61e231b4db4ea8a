package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// adjacencyCappedRef is the map-built AdjacencyCapped the slab builder
// replaced, kept as its reference model.
func adjacencyCappedRef(n *Netlist, maxFanout, maxWidth int) [][]Edge {
	type key struct{ a, b CellID }
	weights := make(map[key]int)
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == NoCell {
			continue
		}
		if maxFanout > 0 && len(t.Sinks) > maxFanout {
			continue
		}
		if maxWidth > 0 && t.Width >= maxWidth {
			continue
		}
		for _, s := range t.Sinks {
			if s == t.Driver {
				continue
			}
			a, b := t.Driver, s
			if a > b {
				a, b = b, a
			}
			weights[key{a, b}] += t.Width
		}
	}
	adj := make([][]Edge, len(n.Cells))
	for k, w := range weights {
		adj[k.a] = append(adj[k.a], Edge{To: k.b, Weight: w})
		adj[k.b] = append(adj[k.b], Edge{To: k.a, Weight: w})
	}
	for c := range adj {
		sort.Slice(adj[c], func(i, j int) bool { return adj[c][i].To < adj[c][j].To })
	}
	return adj
}

// tangledNetlist builds a netlist whose nets have random widths and
// fanouts, with self-loops, repeated sinks and a few undriven nets.
func tangledNetlist(rng *rand.Rand, cells, nets int) *Netlist {
	n := New("random")
	for i := 0; i < cells; i++ {
		n.AddCell(KindLUT, fmt.Sprintf("c%d", i))
	}
	for i := 0; i < nets; i++ {
		t := n.AddNet(fmt.Sprintf("n%d", i), 1+rng.Intn(64))
		if rng.Intn(20) == 0 {
			continue // undriven
		}
		d := CellID(rng.Intn(cells))
		n.SetDriver(t, d)
		for k := rng.Intn(12); k >= 0; k-- {
			switch rng.Intn(8) {
			case 0:
				n.AddSink(t, d) // self-loop
			case 1:
				if len(n.Nets[t].Sinks) > 0 {
					n.AddSink(t, n.Nets[t].Sinks[0]) // repeated sink
					continue
				}
				fallthrough
			default:
				n.AddSink(t, CellID(rng.Intn(cells)))
			}
		}
	}
	return n
}

func TestAdjacencyCappedMatchesReference(t *testing.T) {
	caps := []struct{ maxFanout, maxWidth int }{{0, 0}, {64, 0}, {4, 0}, {0, 32}, {6, 16}, {1, 2}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := tangledNetlist(rng, 1+rng.Intn(200), rng.Intn(600))
		for _, c := range caps {
			got := n.AdjacencyCapped(c.maxFanout, c.maxWidth)
			want := adjacencyCappedRef(n, c.maxFanout, c.maxWidth)
			if len(got) != len(want) {
				t.Fatalf("seed %d caps %+v: %d lists, want %d", seed, c, len(got), len(want))
			}
			for cell := range want {
				if !slices.Equal(got[cell], want[cell]) {
					t.Fatalf("seed %d caps %+v cell %d:\n got %v\nwant %v", seed, c, cell, got[cell], want[cell])
				}
				if cap(got[cell]) != len(got[cell]) {
					t.Fatalf("seed %d caps %+v cell %d: cap %d > len %d, an append would overwrite the next list",
						seed, c, cell, cap(got[cell]), len(got[cell]))
				}
			}
		}
	}
}
