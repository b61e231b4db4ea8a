package partition

import (
	"fmt"
	"sort"

	"vital/internal/linalg"
	"vital/internal/netlist"
)

// clusterGraph is the weighted connectivity between packed clusters, the
// w_ij of Eq. 1.
type clusterGraph struct {
	n     int
	edges map[[2]int]float64 // i < j
	// deg is the summed incident weight per cluster (Laplacian diagonal).
	deg []float64
}

// buildClusterGraph projects the netlist connectivity onto clusters.
func buildClusterGraph(n *netlist.Netlist, clusterOf []int, numClusters int) *clusterGraph {
	g := &clusterGraph{n: numClusters, edges: map[[2]int]float64{}, deg: make([]float64, numClusters)}
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == netlist.NoCell {
			continue
		}
		if len(t.Sinks) > maxFanout {
			continue
		}
		a := clusterOf[t.Driver]
		for _, s := range t.Sinks {
			b := clusterOf[s]
			if a == b || a < 0 || b < 0 {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			g.edges[[2]int{lo, hi}] += float64(t.Width)
		}
	}
	for _, e := range g.sortedEdges() {
		g.deg[e.lo] += e.w
		g.deg[e.hi] += e.w
	}
	return g
}

// edge is one cluster-graph edge with a stable (lo, hi) identity.
type edge struct {
	lo, hi int
	w      float64
}

// sortedEdges returns the edges in (lo, hi) order. The graph is stored as a
// map, whose iteration order is randomized; every consumer that folds edge
// weights into floating-point sums or emits matrix triplets must walk this
// deterministic order, or placements drift between runs of the same input.
func (g *clusterGraph) sortedEdges() []edge {
	out := make([]edge, 0, len(g.edges))
	for e, w := range g.edges {
		out = append(out, edge{lo: e[0], hi: e[1], w: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].lo != out[j].lo {
			return out[i].lo < out[j].lo
		}
		return out[i].hi < out[j].hi
	})
	return out
}

// wirelength evaluates Eq. 1: L = Σ w_ij [α (x_i−x_j)² + (y_i−y_j)²].
func (g *clusterGraph) wirelength(x, y []float64) float64 {
	L := 0.0
	for _, e := range g.sortedEdges() {
		dx := x[e.lo] - x[e.hi]
		dy := y[e.lo] - y[e.hi]
		L += e.w * (alpha*dx*dx + dy*dy)
	}
	return L
}

// quadraticSolve performs step (1)/(3) of §4.2: minimize Eq. 4's anchored
// wirelength by solving the two independent linear systems (∂L/∂x = 0,
// ∂L/∂y = 0). anchorX/anchorY give the pseudo-cluster positions x″, y″
// (step 3); beta[i] is the per-cluster anchor weight β_ii (zero on the
// first iteration, when no pseudo clusters exist yet). ioAnchors adds
// fixed-position pulls for IO clusters so the unanchored first solve is
// non-singular (the netlist's external ports are at fixed pad locations).
func quadraticSolve(g *clusterGraph, x, y, anchorX, anchorY, beta []float64, ioAnchorX map[int]float64, ioW float64) error {
	n := g.n
	ts := make([]linalg.Triplet, 0, len(g.edges)*4+n)
	for _, e := range g.sortedEdges() {
		i, j, w := e.lo, e.hi, e.w
		ts = append(ts,
			linalg.Triplet{Row: i, Col: i, Val: w},
			linalg.Triplet{Row: j, Col: j, Val: w},
			linalg.Triplet{Row: i, Col: j, Val: -w},
			linalg.Triplet{Row: j, Col: i, Val: -w})
	}
	bx := make([]float64, n)
	by := make([]float64, n)
	// A small uniform regularizer keeps isolated clusters well-defined.
	const eps = 1e-6
	for i := 0; i < n; i++ {
		w := beta[i] + eps
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: w})
		bx[i] = beta[i]*anchorX[i] + eps*anchorX[i]
		by[i] = beta[i]*anchorY[i] + eps*anchorY[i]
	}
	ioClusters := make([]int, 0, len(ioAnchorX))
	for i := range ioAnchorX {
		ioClusters = append(ioClusters, i)
	}
	sort.Ints(ioClusters)
	for _, i := range ioClusters {
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: ioW})
		bx[i] += ioW * ioAnchorX[i]
		// IO pads sit at mid-height.
		by[i] += ioW * 0.5
	}
	m, err := linalg.FromTriplets(n, ts)
	if err != nil {
		return err
	}
	if _, err := linalg.SolveCG(m, x, bx, linalg.CGOptions{Tol: 1e-7}); err != nil {
		return fmt.Errorf("partition: x placement solve: %w", err)
	}
	if _, err := linalg.SolveCG(m, y, by, linalg.CGOptions{Tol: 1e-7}); err != nil {
		return fmt.Errorf("partition: y placement solve: %w", err)
	}
	return nil
}
