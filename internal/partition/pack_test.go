package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

// referencePack is the map-frontier packer pack replaced, kept as the
// reference model: the same Algorithm 1 selection (highest inCluster /
// degree, ties to the lowest cell ID) over a map instead of a dense list.
func referencePack(n *netlist.Netlist, adj [][]netlist.Edge, cfg packConfig) []*Cluster {
	rng := rand.New(rand.NewSource(cfg.seed))
	packed := make([]int, n.NumCells())
	for i := range packed {
		packed[i] = -1
	}
	degree := make([]int, n.NumCells())
	for c := range adj {
		degree[c] = len(adj[c])
	}
	order := rng.Perm(n.NumCells())
	var clusters []*Cluster
	inCluster := make([]int, n.NumCells())
	stamp := make([]int, n.NumCells())
	curStamp := 0
	for _, seedIdx := range order {
		seed := netlist.CellID(seedIdx)
		if packed[seed] != -1 {
			continue
		}
		curStamp++
		cl := &Cluster{ID: len(clusters)}
		frontier := make(map[netlist.CellID]struct{})
		addCell := func(c netlist.CellID) {
			packed[c] = cl.ID
			cl.Cells = append(cl.Cells, c)
			cl.Res.AddCell(n.Cells[c].Kind)
			if n.Cells[c].Kind == netlist.KindIO {
				cl.HasIO = true
			}
			delete(frontier, c)
			for _, e := range adj[c] {
				if packed[e.To] == -1 {
					if stamp[e.To] != curStamp {
						stamp[e.To] = curStamp
						inCluster[e.To] = 0
					}
					inCluster[e.To]++
					frontier[e.To] = struct{}{}
				}
			}
		}
		addCell(seed)
		for len(frontier) > 0 {
			best := netlist.NoCell
			bestScore := -1.0
			for cand := range frontier {
				if packed[cand] != -1 {
					delete(frontier, cand)
					continue
				}
				score := float64(inCluster[cand]) / float64(max(degree[cand], 1))
				if score > bestScore || (score == bestScore && cand < best) {
					bestScore, best = score, cand
				}
			}
			if best == netlist.NoCell {
				break
			}
			probe := cl.Res
			probe.AddCell(n.Cells[best].Kind)
			if !probe.FitsIn(cfg.capacity) {
				delete(frontier, best)
				continue
			}
			addCell(best)
		}
		clusters = append(clusters, cl)
	}
	return mergeSmall(n, adj, clusters, packed, cfg)
}

// sameClusters fails the test unless got and want agree cluster by
// cluster: ID, cells in order, resources and HasIO.
func sameClusters(t *testing.T, what string, got, want []*Cluster) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Res != w.Res || g.HasIO != w.HasIO || !slices.Equal(g.Cells, w.Cells) {
			t.Fatalf("%s: cluster %d differs:\n got %+v\nwant %+v", what, i, *g, *w)
		}
	}
}

// randomPackNetlist builds a netlist of every cell kind with random nets,
// so packing meets IO cells, per-kind capacity limits and dense ties.
func randomPackNetlist(rng *rand.Rand, cells, nets int) *netlist.Netlist {
	kinds := []netlist.Kind{netlist.KindLUT, netlist.KindLUT, netlist.KindDFF, netlist.KindDFF, netlist.KindDSP, netlist.KindBRAM, netlist.KindIO}
	n := netlist.New("random")
	for i := 0; i < cells; i++ {
		n.AddCell(kinds[rng.Intn(len(kinds))], fmt.Sprintf("c%d", i))
	}
	for i := 0; i < nets; i++ {
		t := n.AddNet(fmt.Sprintf("n%d", i), 1+rng.Intn(128))
		n.SetDriver(t, netlist.CellID(rng.Intn(cells)))
		for k := rng.Intn(6); k >= 0; k-- {
			n.AddSink(t, netlist.CellID(rng.Intn(cells)))
		}
	}
	return n
}

// TestPackMatchesReference compares pack with the map-frontier reference
// on seeded random netlists under varied capacities, fanout caps and
// seeds.
func TestPackMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomPackNetlist(rng, 1+rng.Intn(400), rng.Intn(900))
		adj := n.AdjacencyCapped(1+rng.Intn(64), rng.Intn(96))
		cfg := packConfig{
			capacity: netlist.Resources{
				LUTs:   1 + rng.Intn(24),
				DFFs:   1 + rng.Intn(24),
				DSPs:   1 + rng.Intn(3),
				BRAMKb: netlist.BRAMKb * (1 + rng.Intn(3)),
			},
			seed:      seed,
			mergeFrac: 0.25,
		}
		sameClusters(t, fmt.Sprintf("seed %d", seed), pack(n, adj, cfg), referencePack(n, adj, cfg))
	}
}

// coldCompileDesigns are the eight designs the cold_compile benchmark
// workload compiles.
var coldCompileDesigns = []string{"lenet-S", "cifar10-S", "svhn-M", "alexnet-S", "lenet-M", "resnet18-S", "nin-M", "alexnet-M"}

// TestPackMatchesReferenceColdCompile compares pack with the reference on
// the cold_compile designs under the configuration the compiler uses.
func TestPackMatchesReferenceColdCompile(t *testing.T) {
	for _, name := range coldCompileDesigns {
		spec, err := workload.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hls.Synthesize(workload.BuildDesign(spec))
		if err != nil {
			t.Fatal(err)
		}
		adj, cfg := packInputs(res.Netlist, Config{BlockCapacity: blockCap, Seed: 11}.withDefaults())
		sameClusters(t, name, pack(res.Netlist, adj, cfg), referencePack(res.Netlist, adj, cfg))
	}
}

// BenchmarkPack packs alexnet-M, the largest cold_compile design, with the
// compiler's configuration. Synthesis and the adjacency are built once,
// outside the timer.
func BenchmarkPack(b *testing.B) {
	spec, err := workload.ParseSpec("alexnet-M")
	if err != nil {
		b.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		b.Fatal(err)
	}
	adj, cfg := packInputs(res.Netlist, Config{BlockCapacity: blockCap, Seed: 11}.withDefaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packSink = pack(res.Netlist, adj, cfg)
	}
}

var packSink []*Cluster

// TestMergeSmallBreaksTiesByLowestCluster hands mergeSmall a singleton
// cluster tied, by connection weight, to five clusters. Cluster 0 is full,
// so the merge must land in cluster 1 — on every run, whatever the
// iteration order of mergeSmall's connection map.
//
// pack itself never produces such a tie: its frontier probes every
// unpacked neighbour, so two adjacent clusters it grows never fit together
// and mergeSmall finds nothing to merge. The clusters are built by hand.
func TestMergeSmallBreaksTiesByLowestCluster(t *testing.T) {
	const neighbours = 5
	cfg := packConfig{capacity: netlist.Resources{LUTs: 8}, mergeFrac: 0.25}
	for run := 0; run < 50; run++ {
		n := netlist.New("tie")
		var clusters []*Cluster
		var packed []int
		addCluster := func(size int) *Cluster {
			cl := &Cluster{ID: len(clusters)}
			for i := 0; i < size; i++ {
				c := n.AddCell(netlist.KindLUT, fmt.Sprintf("c%d.%d", cl.ID, i))
				cl.Cells = append(cl.Cells, c)
				cl.Res.AddCell(netlist.KindLUT)
				packed = append(packed, cl.ID)
			}
			clusters = append(clusters, cl)
			return cl
		}
		addCluster(8) // cluster 0: tied, but full
		for i := 1; i < neighbours; i++ {
			addCluster(3)
		}
		s := addCluster(1).Cells[0]
		for _, cl := range clusters[:neighbours] {
			t0 := n.AddNet(fmt.Sprintf("s-%d", cl.ID), 4)
			n.SetDriver(t0, s)
			n.AddSink(t0, cl.Cells[0])
		}

		out := mergeSmall(n, n.Adjacency(0), clusters, packed, cfg)
		if len(out) != neighbours {
			t.Fatalf("run %d: %d clusters after merging, want %d", run, len(out), neighbours)
		}
		if got := packed[s]; got != 1 {
			t.Fatalf("run %d: singleton merged into cluster %d, want 1 (lowest index with room)", run, got)
		}
	}
}
