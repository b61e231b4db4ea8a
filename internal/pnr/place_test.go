package pnr

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vital/internal/linalg"
	"vital/internal/netlist"
)

// entityEdgesRef is the map projection entityEdges replaced, kept as its
// reference model: every cell edge inside the block is visited from both
// ends and adds half its weight to the entity pair.
func entityEdgesRef(p *Placement, adj [][]netlist.Edge) []entityEdge {
	type ek struct{ a, b int }
	weights := map[ek]float64{}
	for c, ei := range p.cellEntity {
		if ei < 0 {
			continue
		}
		for _, e := range adj[c] {
			ej := p.cellEntity[e.To]
			if ej < 0 || ej == ei {
				continue
			}
			a, b := int(ei), int(ej)
			if a > b {
				a, b = b, a
			}
			weights[ek{a, b}] += float64(e.Weight) / 2
		}
	}
	edges := make([]entityEdge, 0, len(weights))
	for k, w := range weights {
		edges = append(edges, entityEdge{k.a, k.b, w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	return edges
}

// anchoredSystemRef assembles one relaxation's matrix and right-hand sides
// the way analyticPositions did before the Laplacian was built once: every
// term as a triplet, summed by FromTriplets.
func anchoredSystemRef(p *Placement, ew []entityEdge, ax, ay []float64, anchorW float64) (*linalg.CSR, []float64, []float64, error) {
	ne := len(p.Entities)
	var ts []linalg.Triplet
	for _, e := range ew {
		ts = append(ts,
			linalg.Triplet{Row: e.a, Col: e.a, Val: e.w},
			linalg.Triplet{Row: e.b, Col: e.b, Val: e.w},
			linalg.Triplet{Row: e.a, Col: e.b, Val: -e.w},
			linalg.Triplet{Row: e.b, Col: e.a, Val: -e.w})
	}
	bx := make([]float64, ne)
	by := make([]float64, ne)
	W, H := float64(p.Grid.Width), float64(p.Grid.Rows)
	if ax == nil {
		const spreadW = 0.05
		stride := max(ne/64, 1)
		slot := 0
		for i := 0; i < ne; i += stride {
			fx := (float64(slot%8) + 0.5) / 8 * W
			fy := (float64(slot/8%8) + 0.5) / 8 * H
			ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: spreadW})
			bx[i] += spreadW * fx
			by[i] += spreadW * fy
			slot++
		}
	} else {
		for i := 0; i < ne; i++ {
			ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: anchorW})
			bx[i] += anchorW * ax[i]
			by[i] += anchorW * ay[i]
		}
	}
	const eps = 1e-6
	for i := 0; i < ne; i++ {
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: eps})
		bx[i] += eps * W / 2
		by[i] += eps * H / 2
	}
	m, err := linalg.FromTriplets(ne, ts)
	return m, bx, by, err
}

// testBlocks returns unplaced placements of lenet-S: the whole design and
// two random subsets, whose cut edges exercise the outside-the-block path.
func testBlocks(t *testing.T) ([][]netlist.Edge, []*Placement) {
	n := lenetSmall(t)
	adj := n.Adjacency(packMaxFanout)
	rng := rand.New(rand.NewSource(7))
	var blocks []*Placement
	for _, keep := range []float64{1, 0.6, 0.3} {
		var cells []netlist.CellID
		for _, c := range allCells(n) {
			if rng.Float64() < keep {
				cells = append(cells, c)
			}
		}
		blocks = append(blocks, newPlacement(n, blockGrid(), packCLBs(n, cells, adj)))
	}
	return adj, blocks
}

func TestEntityEdgesMatchesReference(t *testing.T) {
	adj, blocks := testBlocks(t)
	for bi, p := range blocks {
		got, want := p.entityEdges(adj), entityEdgesRef(p, adj)
		if len(want) == 0 {
			t.Fatalf("block %d: no entity edges to compare", bi)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("block %d: entityEdges differs from the map projection (%d vs %d edges)", bi, len(got), len(want))
		}
	}
}

// ulps is the distance between two finite floats of the same sign in
// units in the last place.
func ulps(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

func TestLaplacianMatchesFromTriplets(t *testing.T) {
	adj, blocks := testBlocks(t)
	for bi, p := range blocks {
		ew := p.entityEdges(adj)
		ne := len(p.Entities)
		lap := newLaplacian(ne, ew)
		ax := make([]float64, ne)
		ay := make([]float64, ne)
		for i := range ax {
			ax[i], ay[i] = float64(i%37), float64(i%11)
		}
		// The first relaxation's spread anchors, then two anchored ones
		// reusing the same Laplacian.
		for _, anchorW := range []float64{0, 0.02, 0.64} {
			rax, ray := ax, ay
			if anchorW == 0 {
				rax, ray = nil, nil
			}
			bx, by := p.anchor(lap, rax, ray, anchorW)
			want, wbx, wby, err := anchoredSystemRef(p, ew, rax, ray, anchorW)
			if err != nil {
				t.Fatal(err)
			}
			got := lap.m
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
				t.Fatalf("block %d anchorW %g: sparsity structure differs from FromTriplets", bi, anchorW)
			}
			for r := 0; r < ne; r++ {
				for k := got.RowPtr[r]; k < got.RowPtr[r+1]; k++ {
					g, w := got.Val[k], want.Val[k]
					if got.Col[k] != r && g != w {
						t.Fatalf("block %d anchorW %g: off-diagonal (%d,%d) = %v, want %v", bi, anchorW, r, got.Col[k], g, w)
					}
					if got.Col[k] == r && ulps(g, w) > 4 {
						t.Fatalf("block %d anchorW %g: diagonal %d = %v, want %v within 4 ulp", bi, anchorW, r, g, w)
					}
				}
			}
			if !slices.Equal(bx, wbx) || !slices.Equal(by, wby) {
				t.Fatalf("block %d anchorW %g: right-hand sides differ", bi, anchorW)
			}
		}
	}
}
