package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

// blockCap is the XCVU37P physical-block capacity (Table 4).
var blockCap = netlist.Resources{LUTs: 79200, DFFs: 158400, DSPs: 580, BRAMKb: 4320}

func synthSpec(t testing.TB, bench string, v workload.Variant) *netlist.Netlist {
	t.Helper()
	b, err := workload.Find(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(workload.Spec{Benchmark: b, Variant: v}))
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

func TestPartitionSingleBlockTrivial(t *testing.T) {
	n := synthSpec(t, "lenet", workload.Small)
	res, err := Partition(n, 1, Config{BlockCapacity: blockCap, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatal("single-block partition of a one-block design must be feasible")
	}
	if res.CutWidth != 0 {
		t.Fatalf("cut width = %d on one block", res.CutWidth)
	}
}

func TestPartitionInvalidArgs(t *testing.T) {
	n := netlist.New("empty")
	if _, err := Partition(n, 0, Config{BlockCapacity: blockCap}); err == nil {
		t.Fatal("accepted numBlocks=0")
	}
	if _, err := Partition(n, 1, Config{}); err == nil {
		t.Fatal("accepted zero capacity")
	}
}

func TestPartitionEveryCellAssignedExactlyOnce(t *testing.T) {
	n := synthSpec(t, "alexnet", workload.Small)
	res, err := Partition(n, 2, Config{BlockCapacity: blockCap, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellBlock) != n.NumCells() {
		t.Fatal("CellBlock length mismatch")
	}
	for c, b := range res.CellBlock {
		if b < 0 || b >= res.NumBlocks {
			t.Fatalf("cell %d assigned to block %d", c, b)
		}
	}
	// Usage must equal the sum of assigned cells per block.
	check := make([]netlist.Resources, res.NumBlocks)
	for c, b := range res.CellBlock {
		check[b].AddCell(n.Cells[c].Kind)
	}
	for b := range check {
		if check[b] != res.Usage[b] {
			t.Fatalf("block %d usage %+v, recomputed %+v", b, res.Usage[b], check[b])
		}
	}
}

func TestPartitionNeverOverfillsWhenLegal(t *testing.T) {
	n := synthSpec(t, "cifar10", workload.Small)
	res, err := Partition(n, 2, Config{BlockCapacity: blockCap, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("expected legal 2-block partition for cifar10-S")
	}
	for b, u := range res.Usage {
		if !u.FitsIn(blockCap) {
			t.Fatalf("block %d over capacity: %+v", b, u)
		}
	}
}

func TestAutoMatchesPaperBlockCounts(t *testing.T) {
	// The headline Table 2 reproduction: the block count chosen by the
	// compiler equals the paper's #Block (one processing unit per block)
	// for a sample across families and variants.
	cases := []struct {
		bench string
		v     workload.Variant
	}{
		{"lenet", workload.Small},
		{"lenet", workload.Medium},
		{"alexnet", workload.Small},
		{"svhn", workload.Medium},
		{"nin", workload.Medium},
	}
	for _, c := range cases {
		b, _ := workload.Find(c.bench)
		spec := workload.Spec{Benchmark: b, Variant: c.v}
		n := synthSpec(t, c.bench, c.v)
		res, err := Auto(n, Config{BlockCapacity: blockCap, Seed: 11}, 16)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if res.NumBlocks != spec.PaperBlocks() {
			t.Errorf("%s: Auto chose %d blocks, paper reports %d", spec.Name(), res.NumBlocks, spec.PaperBlocks())
		}
	}
}

func TestAutoRespectsChannelBudget(t *testing.T) {
	n := synthSpec(t, "lenet", workload.Medium)
	res, err := Auto(n, Config{BlockCapacity: blockCap, Seed: 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < res.NumBlocks; b++ {
		if res.PerBlockInBits[b] > 448 || res.PerBlockOutBits[b] > 448 {
			t.Fatalf("block %d exceeds channel bandwidth budget: in=%d out=%d bits", b, res.PerBlockInBits[b], res.PerBlockOutBits[b])
		}
	}
}

func TestPartitionReducesBandwidthRequirement(t *testing.T) {
	// The §5.4 claim: the algorithmic optimization reduces the required
	// inter-block interface bandwidth (2.1× on average in the paper).
	n := synthSpec(t, "alexnet", workload.Medium)
	cfg := Config{BlockCapacity: blockCap, Seed: 17}
	res, err := Auto(n, cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	opt := BandwidthRequirement(n, res.CellBlock, res.NumBlocks)
	if opt <= 0 {
		t.Fatal("multi-block partition should have nonzero cut bandwidth")
	}
	naiveAssign, err := NaiveContiguous(n, res.NumBlocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive := BandwidthRequirement(n, naiveAssign, res.NumBlocks)
	if float64(naive) < 1.5*float64(opt) {
		t.Fatalf("optimized requirement %d bits not clearly better than naive %d", opt, naive)
	}
}

func TestPackRespectsClusterCapacity(t *testing.T) {
	n := synthSpec(t, "lenet", workload.Small)
	adj := n.Adjacency(64)
	capacity := netlist.Resources{LUTs: 100, DFFs: 200, DSPs: 2, BRAMKb: 72}
	clusters := pack(n, adj, packConfig{capacity: capacity, seed: 9})
	seen := make([]bool, n.NumCells())
	for _, cl := range clusters {
		if !cl.Res.FitsIn(capacity) {
			t.Fatalf("cluster %d exceeds capacity: %+v", cl.ID, cl.Res)
		}
		var r netlist.Resources
		for _, c := range cl.Cells {
			if seen[c] {
				t.Fatalf("cell %d in two clusters", c)
			}
			seen[c] = true
			r.AddCell(n.Cells[c].Kind)
		}
		if r != cl.Res {
			t.Fatalf("cluster %d resource bookkeeping wrong", cl.ID)
		}
	}
	for c, ok := range seen {
		if !ok && n.Cells[c].Kind != netlist.KindIO {
			t.Fatalf("cell %d unpacked", c)
		}
		_ = c
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	n := synthSpec(t, "svhn", workload.Small)
	a, err := Partition(n, 1, Config{BlockCapacity: blockCap, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(n, 1, Config{BlockCapacity: blockCap, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutWidth != b.CutWidth || len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("nondeterministic: cut %d vs %d, clusters %d vs %d",
			a.CutWidth, b.CutWidth, len(a.Clusters), len(b.Clusters))
	}
	for i := range a.CellBlock {
		if a.CellBlock[i] != b.CellBlock[i] {
			t.Fatalf("assignment differs at cell %d", i)
		}
	}
}

func TestAutoInfeasibleReportsError(t *testing.T) {
	// A design whose single net web exceeds any channel budget at >1 block
	// but is too big for 1 block: impossible within maxBlocks=1.
	n := synthSpec(t, "vgg16", workload.Large)
	_, err := Auto(n, Config{BlockCapacity: blockCap, Seed: 1}, 1)
	if err == nil {
		t.Fatal("expected infeasibility error with maxBlocks=1")
	}
}

// Property: on random operator-graph designs (not just the DNN suite), Auto
// either returns a feasible partition satisfying every invariant or a clean
// infeasibility error — never a panic or a corrupt result.
func TestQuickAutoInvariantsOnRandomDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized partition sweep skipped in -short mode")
	}
	rngSeed := int64(0)
	for trial := 0; trial < 6; trial++ {
		rngSeed += 7
		rng := rand.New(rand.NewSource(rngSeed))
		d := hls.NewDesign(fmt.Sprintf("rand%d", trial))
		nOps := 2 + rng.Intn(5)
		var prev hls.OpID = -1
		for i := 0; i < nOps; i++ {
			op := d.AddOp(hls.OpConv, fmt.Sprintf("op%d", i), fmt.Sprintf("l%d", i), hls.Budget{
				LUTs:  rng.Intn(40000),
				DFFs:  rng.Intn(40000),
				DSPs:  rng.Intn(200),
				BRAMs: rng.Intn(100),
			})
			if prev >= 0 {
				d.Connect(prev, op, 1+rng.Intn(256))
			}
			prev = op
		}
		synth, err := hls.Synthesize(d)
		if err != nil {
			t.Fatal(err)
		}
		n := synth.Netlist
		res, err := Auto(n, Config{BlockCapacity: blockCap, Seed: rngSeed}, 12)
		if err != nil {
			if !errors.Is(err, ErrNoFeasiblePartition) {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		if !res.Feasible() {
			t.Fatalf("trial %d: Auto returned infeasible result without error", trial)
		}
		usage := make([]netlist.Resources, res.NumBlocks)
		for c, b := range res.CellBlock {
			if b < 0 || b >= res.NumBlocks {
				t.Fatalf("trial %d: cell %d in block %d", trial, c, b)
			}
			usage[b].AddCell(n.Cells[c].Kind)
		}
		for b := range usage {
			if !usage[b].FitsIn(blockCap) {
				t.Fatalf("trial %d: block %d over capacity %+v", trial, b, usage[b])
			}
		}
		if BandwidthRequirement(n, res.CellBlock, res.NumBlocks) < 0 {
			t.Fatalf("trial %d: negative bandwidth", trial)
		}
	}
}
