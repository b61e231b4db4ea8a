package pnr

import (
	"container/heap"
	"math"
)

// Maze routing: the escalation stage of the router. Connections that still
// cross overflowed edges after L-shaped negotiation are ripped up and
// rerouted with an A* search over the routing grid, where an edge's cost
// grows with its congestion — the PathFinder-style negotiated routing every
// production router uses for the hard tail of nets.

// edgeRef identifies one routing edge: horizontal (x,y)→(x+1,y) or vertical
// (x,y)→(x,y+1).
type edgeRef struct {
	x, y  int
	horiz bool
}

// use adds (or removes, with negative bits) demand on the edge.
func (g *edgeGrid) use(e edgeRef, bits int) {
	if e.horiz {
		g.addH(e.x, e.y, bits)
	} else {
		g.addV(e.x, e.y, bits)
	}
}

// demand reads the edge's current demand.
func (g *edgeGrid) demand(e edgeRef) int {
	if e.horiz {
		return g.horiz[e.x*g.h+e.y]
	}
	return g.vert[e.x*(g.h-1)+e.y]
}

// mazeCost prices an edge for the A* search: unit wire cost plus a sharply
// growing congestion term once demand approaches capacity.
func mazeCost(demand, bits, capacity int) float64 {
	after := demand + bits
	if after <= capacity {
		return 1
	}
	over := float64(after-capacity) / float64(capacity)
	return 1 + 50*over
}

// A* node state.
type mazeNode struct {
	x, y int
	g, f float64
	idx  int // heap index
}

type mazeHeap []*mazeNode

func (h mazeHeap) Len() int            { return len(h) }
func (h mazeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h mazeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *mazeHeap) Push(x interface{}) { n := x.(*mazeNode); n.idx = len(*h); *h = append(*h, n) }
func (h *mazeHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// mazeRoute finds a congestion-aware path from (x0,y0) to (x1,y1) and
// returns its edges, or nil if the grid is degenerate. The caller commits
// the path with commitPath.
func (g *edgeGrid) mazeRoute(x0, y0, x1, y1, bits, capacity int) []edgeRef {
	if g.w == 0 || g.h == 0 {
		return nil
	}
	idx := func(x, y int) int { return x*g.h + y }
	if g.gScore == nil {
		g.gScore = make([]float64, g.w*g.h)
		g.cameFrom = make([]edgeRef, g.w*g.h)
	}
	gScore, cameFrom := g.gScore, g.cameFrom
	for i := range gScore {
		gScore[i] = math.Inf(1)
	}
	heur := func(x, y int) float64 {
		return math.Abs(float64(x-x1)) + math.Abs(float64(y-y1))
	}
	open := &mazeHeap{}
	start := &mazeNode{x: x0, y: y0, g: 0, f: heur(x0, y0)}
	heap.Push(open, start)
	gScore[idx(x0, y0)] = 0

	type step struct {
		dx, dy int
		edge   func(x, y int) (edgeRef, bool)
	}
	steps := []step{
		{+1, 0, func(x, y int) (edgeRef, bool) { return edgeRef{x, y, true}, x+1 < g.w }},
		{-1, 0, func(x, y int) (edgeRef, bool) { return edgeRef{x - 1, y, true}, x-1 >= 0 }},
		{0, +1, func(x, y int) (edgeRef, bool) { return edgeRef{x, y, false}, y+1 < g.h }},
		{0, -1, func(x, y int) (edgeRef, bool) { return edgeRef{x, y - 1, false}, y-1 >= 0 }},
	}

	for open.Len() > 0 {
		cur := heap.Pop(open).(*mazeNode)
		if cur.x == x1 && cur.y == y1 {
			// Reconstruct. Every node on the way back was reached in
			// this search, so its cameFrom is this search's: a stale
			// entry from an earlier search is never read.
			var path []edgeRef
			x, y := x1, y1
			for x != x0 || y != y0 {
				e := cameFrom[idx(x, y)]
				path = append(path, e)
				// Walk back across e.
				if e.horiz {
					if e.x == x-1 {
						x--
					} else {
						x++
					}
				} else {
					if e.y == y-1 {
						y--
					} else {
						y++
					}
				}
			}
			return path
		}
		if cur.g > gScore[idx(cur.x, cur.y)] {
			continue // stale entry
		}
		for _, st := range steps {
			nx, ny := cur.x+st.dx, cur.y+st.dy
			e, ok := st.edge(cur.x, cur.y)
			if !ok {
				continue
			}
			ng := cur.g + mazeCost(g.demand(e), bits, capacity)
			if ng < gScore[idx(nx, ny)] {
				gScore[idx(nx, ny)] = ng
				cameFrom[idx(nx, ny)] = e
				heap.Push(open, &mazeNode{x: nx, y: ny, g: ng, f: ng + heur(nx, ny)})
			}
		}
	}
	return nil
}

// commitPath adds the path's demand and returns its length.
func (g *edgeGrid) commitPath(path []edgeRef, bits int) int {
	for _, e := range path {
		g.use(e, bits)
	}
	return len(path)
}
