package pnr

import (
	"math"

	"vital/internal/netlist"
)

// Routing is the result of routing one virtual block's nets over the
// capacitated routing grid.
type Routing struct {
	// WirelengthUnits is the total routed length in grid units weighted by
	// net width (bit-segments).
	WirelengthUnits int
	// OverflowEdges counts grid edges whose demand exceeds capacity after
	// negotiation.
	OverflowEdges int
	// MazeRouted counts connections escalated to A* maze routing.
	MazeRouted int
	// MaxUtilization is the peak edge demand/capacity ratio.
	MaxUtilization float64
	// NetDelay maps net → routed path delay in nanoseconds (driver to the
	// farthest sink).
	NetDelay map[netlist.NetID]float64
}

// routerConfig holds the routing-fabric model: per-edge track capacity in
// bits and delay constants.
type routerConfig struct {
	EdgeCapacityBits int
	// WireDelayNsPerUnit is the delay of one grid unit of routing.
	WireDelayNsPerUnit float64
	// Iterations of negotiation (rip-up and reroute of overflowed nets).
	Iterations int
	// MaxMazeRoutes bounds the A* escalation stage per block.
	MaxMazeRoutes int
}

var defaultRouter = routerConfig{
	EdgeCapacityBits:   6000,
	WireDelayNsPerUnit: 0.016,
	Iterations:         3,
	MaxMazeRoutes:      2000,
}

// edgeGrid tracks demand on horizontal and vertical routing edges.
type edgeGrid struct {
	w, h  int
	horiz []int // (w-1) × h edges: (x,y)→(x+1,y) at x*h+y
	vert  []int // w × (h-1) edges: (x,y)→(x,y+1) at x*(h-1)+y

	// mazeRoute's per-node search state (w × h, at x*h+y), allocated by
	// the first search; each search resets gScore, and overwrites the
	// cameFrom of every node it reaches. A grid lives for one RouteBlock
	// call, so the scratch dies with it.
	gScore   []float64
	cameFrom []edgeRef
}

func newEdgeGrid(w, h int) *edgeGrid {
	return &edgeGrid{w: w, h: h, horiz: make([]int, max(w-1, 0)*h), vert: make([]int, w*max(h-1, 0))}
}

func (g *edgeGrid) addH(x, y, bits int) { g.horiz[x*g.h+y] += bits }
func (g *edgeGrid) addV(x, y, bits int) { g.vert[x*(g.h-1)+y] += bits }

// addLPath routes an L from (x0,y0) to (x1,y1), horizontal first when
// horizFirst, accumulating bits on every traversed edge. It returns the
// path length.
func (g *edgeGrid) addLPath(x0, y0, x1, y1, bits int, horizFirst bool) int {
	length := 0
	cx, cy := x0, y0
	moveH := func(tx int) {
		for cx < tx {
			g.addH(cx, cy, bits)
			cx++
			length++
		}
		for cx > tx {
			cx--
			g.addH(cx, cy, bits)
			length++
		}
	}
	moveV := func(ty int) {
		for cy < ty {
			g.addV(cx, cy, bits)
			cy++
			length++
		}
		for cy > ty {
			cy--
			g.addV(cx, cy, bits)
			length++
		}
	}
	if horizFirst {
		moveH(x1)
		moveV(y1)
	} else {
		moveV(y1)
		moveH(x1)
	}
	return length
}

// maxUtilOnL returns the peak demand on the L path without committing it.
func (g *edgeGrid) maxUtilOnL(x0, y0, x1, y1 int, horizFirst bool) int {
	peak := 0
	cx, cy := x0, y0
	scanH := func(tx int) {
		for cx != tx {
			x := cx
			if cx > tx {
				x = cx - 1
			}
			if v := g.horiz[x*g.h+cy]; v > peak {
				peak = v
			}
			if cx < tx {
				cx++
			} else {
				cx--
			}
		}
	}
	scanV := func(ty int) {
		for cy != ty {
			y := cy
			if cy > ty {
				y = cy - 1
			}
			if v := g.vert[cx*(g.h-1)+y]; v > peak {
				peak = v
			}
			if cy < ty {
				cy++
			} else {
				cy--
			}
		}
	}
	if horizFirst {
		scanH(x1)
		scanV(y1)
	} else {
		scanV(y1)
		scanH(x1)
	}
	return peak
}

// RouteBlock routes every net whose driver and at least one sink are placed
// in the block. Each driver→sink connection is routed as an L-path; the
// orientation with the lower peak congestion wins; a light negotiation loop
// reroutes through the alternate orientation where overflow persists.
func RouteBlock(n *netlist.Netlist, p *Placement) *Routing {
	cfg := defaultRouter
	grid := newEdgeGrid(p.Grid.Width, p.Grid.Rows)
	r := &Routing{NetDelay: make(map[netlist.NetID]float64)}

	type conn struct {
		net            netlist.NetID
		x0, y0, x1, y1 int
		bits           int
		horizFirst     bool
		maze           []edgeRef // non-nil once escalated to maze routing
	}
	var conns []conn
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == netlist.NoCell {
			continue
		}
		ds, ok := p.SiteOf(t.Driver)
		if !ok {
			continue
		}
		dx, dy := p.Grid.SitePos(ds)
		for _, s := range t.Sinks {
			ss, ok := p.SiteOf(s)
			if !ok {
				continue
			}
			sx, sy := p.Grid.SitePos(ss)
			conns = append(conns, conn{
				net: t.ID,
				x0:  int(dx), y0: clampInt(int(dy), 0, p.Grid.Rows-1),
				x1: int(sx), y1: clampInt(int(sy), 0, p.Grid.Rows-1),
				bits: t.Width,
			})
		}
	}

	// Initial routing: pick the less-congested L orientation per connection.
	for ci := range conns {
		c := &conns[ci]
		peakH := grid.maxUtilOnL(c.x0, c.y0, c.x1, c.y1, true)
		peakV := grid.maxUtilOnL(c.x0, c.y0, c.x1, c.y1, false)
		c.horizFirst = peakH <= peakV
		grid.addLPath(c.x0, c.y0, c.x1, c.y1, c.bits, c.horizFirst)
	}

	// Negotiation: reroute connections crossing overflowed edges through
	// the alternate orientation.
	for iter := 0; iter < cfg.Iterations; iter++ {
		rerouted := 0
		for ci := range conns {
			c := &conns[ci]
			cur := grid.maxUtilOnL(c.x0, c.y0, c.x1, c.y1, c.horizFirst)
			if cur <= cfg.EdgeCapacityBits {
				continue
			}
			// Remove, test the alternative, keep the better.
			grid.addLPath(c.x0, c.y0, c.x1, c.y1, -c.bits, c.horizFirst)
			alt := grid.maxUtilOnL(c.x0, c.y0, c.x1, c.y1, !c.horizFirst)
			if alt+c.bits < cur {
				c.horizFirst = !c.horizFirst
				rerouted++
			}
			grid.addLPath(c.x0, c.y0, c.x1, c.y1, c.bits, c.horizFirst)
		}
		if rerouted == 0 {
			break
		}
	}

	// Escalation: connections still crossing overflowed edges are ripped
	// up and maze-routed with congestion-aware A* (PathFinder-style). The
	// budget bounds worst-case runtime; overflow that survives is reported.
	mazeBudget := cfg.MaxMazeRoutes
	for ci := range conns {
		if mazeBudget == 0 {
			break
		}
		c := &conns[ci]
		if grid.maxUtilOnL(c.x0, c.y0, c.x1, c.y1, c.horizFirst) <= cfg.EdgeCapacityBits {
			continue
		}
		grid.addLPath(c.x0, c.y0, c.x1, c.y1, -c.bits, c.horizFirst)
		path := grid.mazeRoute(c.x0, c.y0, c.x1, c.y1, c.bits, cfg.EdgeCapacityBits)
		if path == nil {
			grid.addLPath(c.x0, c.y0, c.x1, c.y1, c.bits, c.horizFirst)
			continue
		}
		grid.commitPath(path, c.bits)
		c.maze = path
		r.MazeRouted++
		mazeBudget--
	}

	// Final accounting from the committed routes.
	for ci := range conns {
		c := &conns[ci]
		length := len(c.maze)
		if c.maze == nil {
			length = abs(c.x1-c.x0) + abs(c.y1-c.y0)
		}
		r.WirelengthUnits += length * c.bits
		delay := float64(length) * cfg.WireDelayNsPerUnit
		if delay > r.NetDelay[c.net] {
			r.NetDelay[c.net] = delay
		}
	}

	// Final congestion accounting.
	maxDemand := 0
	for _, v := range grid.horiz {
		if v > cfg.EdgeCapacityBits {
			r.OverflowEdges++
		}
		if v > maxDemand {
			maxDemand = v
		}
	}
	for _, v := range grid.vert {
		if v > cfg.EdgeCapacityBits {
			r.OverflowEdges++
		}
		if v > maxDemand {
			maxDemand = v
		}
	}
	r.MaxUtilization = float64(maxDemand) / float64(cfg.EdgeCapacityBits)
	return r
}

func clampInt(v, lo, hi int) int {
	return int(math.Min(math.Max(float64(v), float64(lo)), float64(hi)))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
