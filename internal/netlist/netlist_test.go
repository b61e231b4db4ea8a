package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildChain constructs IO -> LUT -> DFF -> LUT -> IO.
func buildChain(t *testing.T) *Netlist {
	t.Helper()
	n := New("chain")
	in := n.AddCell(KindIO, "in")
	l1 := n.AddCell(KindLUT, "l1")
	ff := n.AddCell(KindDFF, "ff")
	l2 := n.AddCell(KindLUT, "l2")
	out := n.AddCell(KindIO, "out")

	n0 := n.AddNet("n0", 1)
	n1 := n.AddNet("n1", 1)
	n2 := n.AddNet("n2", 1)
	n3 := n.AddNet("n3", 1)

	n.SetDriver(n0, in)
	n.AddSink(n0, l1)
	n.SetDriver(n1, l1)
	n.AddSink(n1, ff)
	n.SetDriver(n2, ff)
	n.AddSink(n2, l2)
	n.SetDriver(n3, l2)
	n.AddSink(n3, out)
	if err := n.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return n
}

func TestBuilderAndCheck(t *testing.T) {
	n := buildChain(t)
	if n.NumCells() != 5 || n.NumNets() != 4 {
		t.Fatalf("got %d cells, %d nets", n.NumCells(), n.NumNets())
	}
	if got := n.CountKind(KindLUT); got != 2 {
		t.Fatalf("CountKind(LUT) = %d, want 2", got)
	}
	r := n.Resources()
	want := Resources{LUTs: 2, DFFs: 1}
	if r != want {
		t.Fatalf("Resources = %+v, want %+v", r, want)
	}
}

func TestGrowReservesExactly(t *testing.T) {
	n := New("g")
	n.Grow(3, 2)
	if cap(n.Cells) != 3 || cap(n.Nets) != 2 {
		t.Fatalf("Grow(3, 2) on an empty netlist: cap(Cells) = %d, cap(Nets) = %d; want 3 and 2", cap(n.Cells), cap(n.Nets))
	}
	cells, nets := &n.Cells[:1][0], &n.Nets[:1][0]
	a, b, c := n.AddCell(KindIO, "a"), n.AddCell(KindLUT, "b"), n.AddCell(KindIO, "c")
	ab, bc := n.AddNet("ab", 1), n.AddNet("bc", 1)
	n.SetDriver(ab, a)
	n.AddSink(ab, b)
	n.SetDriver(bc, b)
	n.AddSink(bc, c)
	if &n.Cells[0] != cells || &n.Nets[0] != nets {
		t.Fatal("adding within the reserved room reallocated")
	}
	n.Grow(0, 0) // no room asked for: a no-op
	n.Grow(2, 1)
	if cap(n.Cells) != 5 || cap(n.Nets) != 3 {
		t.Fatalf("Grow(2, 1) on a full netlist: cap(Cells) = %d, cap(Nets) = %d; want 5 and 3", cap(n.Cells), cap(n.Nets))
	}
	if err := n.Check(); err != nil || n.NumCells() != 3 || n.NumNets() != 2 || n.Cells[1].Name != "b" {
		t.Fatalf("Grow changed the netlist: %d cells, %d nets, Check %v", n.NumCells(), n.NumNets(), err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Grow(-1, 0) did not panic")
		}
	}()
	n.Grow(-1, 0)
}

func TestSetDriverPanicsOnDoubleDrive(t *testing.T) {
	n := New("dd")
	a := n.AddCell(KindLUT, "a")
	b := n.AddCell(KindLUT, "b")
	t0 := n.AddNet("t", 1)
	n.SetDriver(t0, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double drive")
		}
	}()
	n.SetDriver(t0, b)
}

func TestCheckDetectsCorruption(t *testing.T) {
	n := buildChain(t)
	// Corrupt: net claims a sink that does not list it as an input.
	n.Nets[0].Sinks = append(n.Nets[0].Sinks, 4)
	// Cell 4 (out) gains an input net reference mismatch the other way.
	n.Cells[3].In = append(n.Cells[3].In, 0)
	if err := n.Check(); err == nil {
		t.Fatal("Check passed on corrupted netlist")
	}
}

func TestCheckRejectsBadWidth(t *testing.T) {
	n := New("w")
	id := n.AddNet("t", 4)
	n.Nets[id].Width = 0
	if err := n.Check(); err == nil {
		t.Fatal("Check accepted width 0")
	}
}

func TestAddNetClampsWidth(t *testing.T) {
	n := New("w")
	id := n.AddNet("t", -5)
	if n.Nets[id].Width != 1 {
		t.Fatalf("width = %d, want 1", n.Nets[id].Width)
	}
}

func TestAdjacencyWeightsAndFanoutCap(t *testing.T) {
	n := New("adj")
	a := n.AddCell(KindLUT, "a")
	b := n.AddCell(KindLUT, "b")
	c := n.AddCell(KindLUT, "c")
	// Two nets a->b of widths 8 and 8 accumulate to one edge of weight 16.
	for i := 0; i < 2; i++ {
		t0 := n.AddNet("ab", 8)
		n.SetDriver(t0, a)
		n.AddSink(t0, b)
	}
	// High-fanout net from c to both a and b.
	hf := n.AddNet("hf", 1)
	n.SetDriver(hf, c)
	n.AddSink(hf, a)
	n.AddSink(hf, b)

	adj := n.Adjacency(0)
	wAB := 0
	for _, e := range adj[a] {
		if e.To == b {
			wAB = e.Weight
		}
	}
	if wAB != 16 {
		t.Fatalf("edge a-b weight = %d, want 16", wAB)
	}
	// With maxFanout 1 the 2-sink net is dropped.
	adj = n.Adjacency(1)
	for _, e := range adj[c] {
		t.Fatalf("expected no edges from c with fanout cap, got %+v", e)
	}
}

func TestConnectedComponents(t *testing.T) {
	n := buildChain(t)
	// Add an isolated pair.
	x := n.AddCell(KindLUT, "x")
	y := n.AddCell(KindDFF, "y")
	t0 := n.AddNet("xy", 1)
	n.SetDriver(t0, x)
	n.AddSink(t0, y)
	// And one fully isolated cell.
	n.AddCell(KindLUT, "lonely")

	labels, count := n.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[4] {
		t.Fatal("chain endpoints should share a component")
	}
	if labels[5] != labels[6] {
		t.Fatal("x and y should share a component")
	}
	if labels[5] == labels[0] || labels[7] == labels[0] {
		t.Fatal("separate components should have distinct labels")
	}
}

func TestTopoOrderRespectsCombDependencies(t *testing.T) {
	n := buildChain(t)
	order, loop := n.TopoOrder()
	if loop {
		t.Fatal("unexpected combinational loop")
	}
	pos := make(map[CellID]int)
	for i, c := range order {
		pos[c] = i
	}
	if len(order) != n.NumCells() {
		t.Fatalf("order misses cells: %d of %d", len(order), n.NumCells())
	}
	// in (0) before l1 (1); l1 before ff (2). ff -> l2 is sequential, no constraint.
	if pos[0] > pos[1] || pos[1] > pos[2] {
		t.Fatalf("bad order %v", order)
	}
}

func TestTopoOrderFlagsCombLoop(t *testing.T) {
	n := New("loop")
	a := n.AddCell(KindLUT, "a")
	b := n.AddCell(KindLUT, "b")
	t0 := n.AddNet("ab", 1)
	t1 := n.AddNet("ba", 1)
	n.SetDriver(t0, a)
	n.AddSink(t0, b)
	n.SetDriver(t1, b)
	n.AddSink(t1, a)
	order, loop := n.TopoOrder()
	if !loop {
		t.Fatal("combinational loop not detected")
	}
	if len(order) != 2 {
		t.Fatalf("order must still contain all cells, got %d", len(order))
	}
}

func TestCutWidth(t *testing.T) {
	n := New("cut")
	a := n.AddCell(KindLUT, "a")
	b := n.AddCell(KindLUT, "b")
	c := n.AddCell(KindLUT, "c")
	t0 := n.AddNet("abc", 32)
	n.SetDriver(t0, a)
	n.AddSink(t0, b)
	n.AddSink(t0, c)

	if w := n.CutWidth([]int{0, 0, 0}); w != 0 {
		t.Fatalf("uncut width = %d, want 0", w)
	}
	if w := n.CutWidth([]int{0, 1, 0}); w != 32 {
		t.Fatalf("2-part cut = %d, want 32", w)
	}
	if w := n.CutWidth([]int{0, 1, 2}); w != 64 {
		t.Fatalf("3-part cut = %d, want 64 (width × (parts−1))", w)
	}
}

func TestExternalDegree(t *testing.T) {
	n := buildChain(t)
	// Set = {l1, ff} (cells 1, 2). Crossing nets: n0 (in->l1) and n2 (ff->l2).
	in := func(c CellID) bool { return c == 1 || c == 2 }
	deg := n.ExternalDegree(in)
	if deg[1] != 1 { // l1 receives n0 from outside
		t.Fatalf("deg[l1] = %d, want 1", deg[1])
	}
	if deg[2] != 1 { // ff drives n2 out of the set
		t.Fatalf("deg[ff] = %d, want 1", deg[2])
	}
}

// randomNetlist builds a structurally valid random netlist from a seed.
func randomNetlist(seed int64, nCells, nNets int) *Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := New("rand")
	kinds := []Kind{KindLUT, KindLUT, KindLUT, KindDFF, KindDSP, KindBRAM}
	for i := 0; i < nCells; i++ {
		n.AddCell(kinds[rng.Intn(len(kinds))], "c")
	}
	for i := 0; i < nNets; i++ {
		t := n.AddNet("t", 1+rng.Intn(64))
		n.SetDriver(t, CellID(rng.Intn(nCells)))
		for s := 0; s < 1+rng.Intn(4); s++ {
			n.AddSink(t, CellID(rng.Intn(nCells)))
		}
	}
	return n
}

func TestQuickRandomNetlistsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		n := randomNetlist(seed, 50, 120)
		return n.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: resource vector equals sum over kinds, and CutWidth of the
// all-same assignment is always zero.
func TestQuickResourceAndCutInvariants(t *testing.T) {
	f := func(seed int64) bool {
		n := randomNetlist(seed, 40, 100)
		r := n.Resources()
		if r.LUTs != n.CountKind(KindLUT) || r.DFFs != n.CountKind(KindDFF) ||
			r.DSPs != n.CountKind(KindDSP) || r.BRAMKb != n.CountKind(KindBRAM)*BRAMKb {
			return false
		}
		assign := make([]int, n.NumCells())
		return n.CutWidth(assign) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopoOrder is a permutation of all cells.
func TestQuickTopoOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		n := randomNetlist(seed, 60, 150)
		order, _ := n.TopoOrder()
		if len(order) != n.NumCells() {
			return false
		}
		seen := make([]bool, n.NumCells())
		for _, c := range order {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
