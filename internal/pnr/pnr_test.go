package pnr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

func blockGrid() *fpga.Grid {
	return fpga.NewGrid(fpga.XCVU37P().BlockShape())
}

func lenetSmall(t testing.TB) *netlist.Netlist {
	t.Helper()
	b, err := workload.Find("lenet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(workload.Spec{Benchmark: b, Variant: workload.Small}))
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

func allCells(n *netlist.Netlist) []netlist.CellID {
	cells := make([]netlist.CellID, n.NumCells())
	for i := range cells {
		cells[i] = netlist.CellID(i)
	}
	return cells
}

func TestPackCLBsCoversAllSoftCells(t *testing.T) {
	n := lenetSmall(t)
	adj := n.Adjacency(64)
	entities := packCLBs(n, allCells(n), adj)
	covered := map[netlist.CellID]bool{}
	for _, e := range entities {
		luts, dffs := 0, 0
		for _, c := range e.Cells {
			if covered[c] {
				t.Fatalf("cell %d packed twice", c)
			}
			covered[c] = true
			switch n.Cells[c].Kind {
			case netlist.KindLUT:
				luts++
			case netlist.KindDFF:
				dffs++
			}
		}
		switch e.Kind {
		case fpga.ColCLB:
			if luts > clbLUTs || dffs > clbDFFs {
				t.Fatalf("CLB entity overpacked: %d LUT, %d DFF", luts, dffs)
			}
		case fpga.ColDSP, fpga.ColBRAM:
			if len(e.Cells) != 1 {
				t.Fatalf("hard entity with %d cells", len(e.Cells))
			}
		}
	}
	for c := 0; c < n.NumCells(); c++ {
		if n.Cells[c].Kind == netlist.KindIO {
			continue
		}
		if !covered[netlist.CellID(c)] {
			t.Fatalf("cell %d (%v) not packed", c, n.Cells[c].Kind)
		}
	}
}

func TestPlaceBlockAssignsDistinctSites(t *testing.T) {
	n := lenetSmall(t)
	p, err := PlaceBlock(n, allCells(n), blockGrid())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[fpga.Site]bool{}
	for i, s := range p.Sites {
		if seen[s] {
			t.Fatalf("entity %d shares site %+v", i, s)
		}
		seen[s] = true
		if s.Idx < 0 || s.Idx >= p.Grid.SitesInColumn(s.Col) {
			t.Fatalf("entity %d at out-of-range site %+v", i, s)
		}
		if p.Grid.Shape.Columns[s.Col].Kind != s.Kind || s.Kind != p.Entities[i].Kind {
			t.Fatalf("entity %d kind mismatch at site %+v", i, s)
		}
	}
}

func TestPlaceBlockRejectsOverCapacity(t *testing.T) {
	b, _ := workload.Find("vgg16")
	res, err := hls.Synthesize(workload.BuildDesign(workload.Spec{Benchmark: b, Variant: workload.Large}))
	if err != nil {
		t.Fatal(err)
	}
	n := res.Netlist
	// The whole 269k-LUT design cannot fit one 79.2k-LUT block.
	if _, err := PlaceBlock(n, allCells(n), blockGrid()); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
}

func TestRouteBlockProducesFiniteCongestion(t *testing.T) {
	n := lenetSmall(t)
	p, err := PlaceBlock(n, allCells(n), blockGrid())
	if err != nil {
		t.Fatal(err)
	}
	r := RouteBlock(n, p)
	if r.WirelengthUnits <= 0 {
		t.Fatal("zero wirelength for a connected design")
	}
	if r.MaxUtilization <= 0 {
		t.Fatal("zero utilization")
	}
	// The analytic placement must keep the block routable: bounded
	// overflow after negotiation.
	totalEdges := (p.Grid.Width-1)*p.Grid.Rows + p.Grid.Width*(p.Grid.Rows-1)
	if r.OverflowEdges > totalEdges/20 {
		t.Fatalf("overflow on %d of %d edges — placement not routable", r.OverflowEdges, totalEdges)
	}
}

func TestAnalyzeTimingPositive(t *testing.T) {
	n := lenetSmall(t)
	p, err := PlaceBlock(n, allCells(n), blockGrid())
	if err != nil {
		t.Fatal(err)
	}
	r := RouteBlock(n, p)
	order, combLoop := n.TopoOrder()
	if combLoop {
		t.Fatal("lenet-S netlist has a combinational loop")
	}
	tm := AnalyzeTiming(n, order, p, r)
	if tm.CriticalPathNs <= 0 || tm.FmaxMHz <= 0 {
		t.Fatalf("timing = %+v", tm)
	}
	// An UltraScale+-class accelerator block should close somewhere in the
	// tens-to-hundreds of MHz.
	if tm.FmaxMHz < 10 || tm.FmaxMHz > 2000 {
		t.Fatalf("implausible Fmax %.1f MHz", tm.FmaxMHz)
	}
}

func TestLocalPlaceAndRouteMultiBlock(t *testing.T) {
	b, _ := workload.Find("lenet")
	spec := workload.Spec{Benchmark: b, Variant: workload.Medium}
	res, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		t.Fatal(err)
	}
	n := res.Netlist
	// Partition cells by processing unit via name prefix — a stand-in for
	// the partitioner to keep this test independent of it.
	cellBlock := make([]int, n.NumCells())
	for c := range cellBlock {
		name := n.Cells[c].Name
		switch {
		case len(name) >= 3 && name[:3] == "pu0":
			cellBlock[c] = 0
		case len(name) >= 3 && name[:3] == "pu1":
			cellBlock[c] = 1
		case len(name) >= 3 && name[:3] == "pu2":
			cellBlock[c] = 2
		default:
			cellBlock[c] = 3
		}
	}
	results, err := LocalPlaceAndRoute(n, cellBlock, 4, blockGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, br := range results {
		if br.Elapsed <= 0 {
			t.Fatal("missing elapsed time")
		}
		if br.Timing.FmaxMHz <= 0 {
			t.Fatalf("block %d: no timing", br.Block)
		}
	}
}

// A combinational loop leaves timing without a dataflow order: local P&R
// reports it instead of timing an arbitrary cut of the loop.
func TestLocalPlaceAndRouteRejectsCombLoop(t *testing.T) {
	n := netlist.New("loop")
	a := n.AddCell(netlist.KindLUT, "a")
	b := n.AddCell(netlist.KindLUT, "b")
	ab, ba := n.AddNet("ab", 1), n.AddNet("ba", 1)
	n.SetDriver(ab, a)
	n.AddSink(ab, b)
	n.SetDriver(ba, b)
	n.AddSink(ba, a)
	if _, err := LocalPlaceAndRoute(n, []int{0, 0}, 1, blockGrid()); err == nil {
		t.Fatal("accepted a netlist with a combinational loop")
	}
}

func TestLocalPlaceAndRouteValidatesArgs(t *testing.T) {
	n := lenetSmall(t)
	if _, err := LocalPlaceAndRoute(n, []int{0}, 1, blockGrid()); err == nil {
		t.Fatal("accepted wrong cellBlock length")
	}
	bad := make([]int, n.NumCells())
	bad[0] = 5
	if _, err := LocalPlaceAndRoute(n, bad, 1, blockGrid()); err == nil {
		t.Fatal("accepted out-of-range block index")
	}
}

func TestGlobalPlaceAndRouteCountsCutNets(t *testing.T) {
	n := netlist.New("x")
	a := n.AddCell(netlist.KindLUT, "a")
	b := n.AddCell(netlist.KindLUT, "b")
	c := n.AddCell(netlist.KindLUT, "c")
	t0 := n.AddNet("ab", 32)
	n.SetDriver(t0, a)
	n.AddSink(t0, b)
	t1 := n.AddNet("ac", 8)
	n.SetDriver(t1, a)
	n.AddSink(t1, c)
	g := GlobalPlaceAndRoute(n, []int{0, 1, 0}, 2)
	if g.InterBlockNets != 1 || g.InterBlockBits != 32 {
		t.Fatalf("stitch = %d nets / %d bits, want 1/32", g.InterBlockNets, g.InterBlockBits)
	}
	if _, ok := g.ChannelAssignments[t0]; !ok {
		t.Fatal("cut net not assigned a channel")
	}
	if _, ok := g.ChannelAssignments[t1]; ok {
		t.Fatal("internal net assigned a channel")
	}
}

func TestRefineDetailedNeverWorsens(t *testing.T) {
	n := lenetSmall(t)
	p, err := PlaceBlock(n, allCells(n), blockGrid())
	if err != nil {
		t.Fatal(err)
	}
	edges := p.entityEdges(n.Adjacency(64))
	before := p.weightedWirelength(edges)
	gain := p.refineDetailed(edges)
	after := p.weightedWirelength(edges)
	if gain < 0 {
		t.Fatalf("negative gain %v", gain)
	}
	if after > before+1e-6 {
		t.Fatalf("refinement worsened wirelength: %v → %v", before, after)
	}
	if math.Abs((before-after)-gain) > 1e-3*math.Max(1, before) {
		t.Fatalf("reported gain %v inconsistent with measured %v", gain, before-after)
	}
	// Sites stay distinct and kind-consistent after swapping.
	seen := map[fpga.Site]bool{}
	for i, s := range p.Sites {
		if seen[s] {
			t.Fatalf("duplicate site after refinement: %+v", s)
		}
		seen[s] = true
		if s.Kind != p.Entities[i].Kind {
			t.Fatalf("entity %d kind mismatch after refinement", i)
		}
	}
}

func TestMazeRouteFindsDetour(t *testing.T) {
	// A 5×5 grid with the direct column saturated: the maze router must
	// detour around it and stay within capacity.
	g := newEdgeGrid(5, 5)
	const capacity = 100
	// Saturate all vertical edges in column 2.
	for y := 0; y < 4; y++ {
		g.addV(2, y, capacity)
	}
	// Also saturate horizontal edges crossing x=2 at row 0 except row 4,
	// forcing a specific detour.
	for y := 0; y < 4; y++ {
		g.addH(2, y, capacity)
	}
	path := g.mazeRoute(0, 0, 4, 0, 50, capacity)
	if path == nil {
		t.Fatal("no path found")
	}
	g.commitPath(path, 50)
	// The committed path must not overload any edge.
	for x := 0; x < 4; x++ {
		for y := 0; y < 5; y++ {
			if v := g.horiz[x*g.h+y]; v > capacity {
				t.Fatalf("horizontal edge (%d,%d) overloaded: %d", x, y, v)
			}
		}
	}
	for x := 0; x < 5; x++ {
		for y := 0; y < 4; y++ {
			if v := g.vert[x*(g.h-1)+y]; v > capacity {
				t.Fatalf("vertical edge (%d,%d) overloaded: %d", x, y, v)
			}
		}
	}
	// A detour is longer than the 4-unit straight line.
	if len(path) <= 4 {
		t.Fatalf("path length %d suspiciously short for a blocked row", len(path))
	}
}

func TestMazeRoutePathConnectsEndpoints(t *testing.T) {
	g := newEdgeGrid(8, 8)
	path := g.mazeRoute(1, 2, 6, 5, 10, 1000)
	if len(path) != 8 { // manhattan distance 5+3
		t.Fatalf("uncongested path length = %d, want 8", len(path))
	}
}

// TestMazeRouteReusedScratchMatchesFresh routes a seeded sequence of
// connections on one edgeGrid, committing each path so congestion builds
// up, and checks every search against a fresh grid with the same demand:
// the search state the grid keeps between calls must not leak into the
// next path.
func TestMazeRouteReusedScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w, h, capacity = 17, 29, 400
	g := newEdgeGrid(w, h)
	for i := range g.horiz {
		g.horiz[i] = rng.Intn(capacity + 200)
	}
	for i := range g.vert {
		g.vert[i] = rng.Intn(capacity + 200)
	}
	routed := 0
	for i := 0; i < 300; i++ {
		x0, y0, x1, y1 := rng.Intn(w), rng.Intn(h), rng.Intn(w), rng.Intn(h)
		bits := 1 + rng.Intn(120)
		fresh := newEdgeGrid(w, h)
		copy(fresh.horiz, g.horiz)
		copy(fresh.vert, g.vert)
		want := fresh.mazeRoute(x0, y0, x1, y1, bits, capacity)
		got := g.mazeRoute(x0, y0, x1, y1, bits, capacity)
		if !slices.Equal(got, want) {
			t.Fatalf("connection %d (%d,%d)→(%d,%d): reused grid path %v, fresh grid path %v", i, x0, y0, x1, y1, got, want)
		}
		if got != nil {
			g.commitPath(got, bits)
			routed++
		}
	}
	if routed < 250 {
		t.Fatalf("only %d of 300 connections routed", routed)
	}
}

// BenchmarkRouteBlock routes svhn-S, a one-block design whose routing
// escalates about a hundred connections to the maze router, from a
// placement made once outside the timer.
func BenchmarkRouteBlock(b *testing.B) {
	spec, err := workload.ParseSpec("svhn-S")
	if err != nil {
		b.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		b.Fatal(err)
	}
	n := res.Netlist
	p, err := PlaceBlock(n, allCells(n), blockGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSink = RouteBlock(n, p)
	}
}

var routeSink *Routing
