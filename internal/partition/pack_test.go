package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

// referencePack is the map-frontier packer pack replaced, kept as the
// reference model: the same Algorithm 1 selection (highest inCluster /
// degree, ties to the lowest cell ID) over a map instead of a dense list,
// followed by the small-cluster merge pack no longer runs.
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

	// §4.1's merge step, as the packer ran it before it was dropped:
	// fold clusters under a quarter full, smallest first, into their
	// most-connected neighbour cluster with room (equal weights to the
	// lowest cluster index). It never finds a pair, which is what lets
	// TestPackMatchesReference compare pack without it to this model.
	var small []int
	for i, cl := range clusters {
		if cl.Res.MaxRatio(cfg.capacity) < 0.25 {
			small = append(small, i)
		}
	}
	sort.Slice(small, func(a, b int) bool {
		return len(clusters[small[a]].Cells) < len(clusters[small[b]].Cells)
	})
	alive := make([]bool, len(clusters))
	for i := range alive {
		alive[i] = true
	}
	for _, i := range small {
		cl := clusters[i]
		if !alive[i] {
			continue
		}
		conn := map[int]int{}
		for _, c := range cl.Cells {
			for _, e := range adj[c] {
				o := packed[e.To]
				if o != i && o >= 0 && alive[o] {
					conn[o] += e.Weight
				}
			}
		}
		best, bestW := -1, 0
		for o, w := range conn {
			better := w > bestW || (w == bestW && best >= 0 && o < best)
			if better && cl.Res.Add(clusters[o].Res).FitsIn(cfg.capacity) {
				best, bestW = o, w
			}
		}
		if best == -1 {
			continue
		}
		dst := clusters[best]
		for _, c := range cl.Cells {
			packed[c] = best
		}
		dst.Cells = append(dst.Cells, cl.Cells...)
		dst.Res = dst.Res.Add(cl.Res)
		dst.HasIO = dst.HasIO || cl.HasIO
		alive[i] = false
	}
	out := make([]*Cluster, 0, len(clusters))
	for i, cl := range clusters {
		if alive[i] {
			cl.ID = len(out)
			out = append(out, cl)
		}
	}
	return out
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

// randomPackCase builds the seed'th random packing input: a netlist, its
// capped adjacency and a packing configuration, under varied capacities,
// fanout caps and seeds.
func randomPackCase(seed int64) (*netlist.Netlist, [][]netlist.Edge, packConfig) {
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
		seed: seed,
	}
	return n, adj, cfg
}

// TestPackMatchesReference compares pack with the map-frontier reference
// on seeded random netlists.
func TestPackMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n, adj, cfg := randomPackCase(seed)
		sameClusters(t, fmt.Sprintf("seed %d", seed), pack(n, adj, cfg), referencePack(n, adj, cfg))
	}
}

// checkNoMergeablePair fails the test if two clusters joined by an edge
// of adj fit together in capacity: the pair a small-cluster merge would
// need, and which pack never leaves.
func checkNoMergeablePair(t *testing.T, what string, adj [][]netlist.Edge, clusters []*Cluster, capacity netlist.Resources) {
	t.Helper()
	clusterOf := make([]int, len(adj))
	for _, cl := range clusters {
		for _, c := range cl.Cells {
			clusterOf[c] = cl.ID
		}
	}
	for c := range adj {
		for _, e := range adj[c] {
			a, b := clusters[clusterOf[c]], clusters[clusterOf[e.To]]
			if a != b && a.Res.Add(b.Res).FitsIn(capacity) {
				t.Fatalf("%s: adjacent clusters %d %+v and %d %+v fit together in %+v", what, a.ID, a.Res, b.ID, b.Res, capacity)
			}
		}
	}
}

// TestPackLeavesNoMergeablePair pins the property that makes §4.1's merge
// step dead: on TestPackMatchesReference's random netlists and on the
// cold_compile designs, no two adjacent clusters fit together.
func TestPackLeavesNoMergeablePair(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n, adj, cfg := randomPackCase(seed)
		checkNoMergeablePair(t, fmt.Sprintf("seed %d", seed), adj, pack(n, adj, cfg), cfg.capacity)
	}
	for _, name := range coldCompileDesigns {
		n := synthDesign(t, name)
		adj, cfg := packInputs(n, Config{BlockCapacity: blockCap, Seed: 11})
		checkNoMergeablePair(t, name, adj, pack(n, adj, cfg), cfg.capacity)
	}
}

// coldCompileDesigns are the eight designs the cold_compile benchmark
// workload compiles.
var coldCompileDesigns = []string{"lenet-S", "cifar10-S", "svhn-M", "alexnet-S", "lenet-M", "resnet18-S", "nin-M", "alexnet-M"}

// TestPackMatchesReferenceColdCompile compares pack with the reference on
// the cold_compile designs under the configuration the compiler uses.
func TestPackMatchesReferenceColdCompile(t *testing.T) {
	for _, name := range coldCompileDesigns {
		n := synthDesign(t, name)
		adj, cfg := packInputs(n, Config{BlockCapacity: blockCap, Seed: 11})
		sameClusters(t, name, pack(n, adj, cfg), referencePack(n, adj, cfg))
	}
}

// synthDesign synthesizes a Table 2 design given as "<benchmark>-<S|M|L>".
func synthDesign(t testing.TB, name string) *netlist.Netlist {
	t.Helper()
	spec, err := workload.ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

// BenchmarkPack packs alexnet-M, the largest cold_compile design, with the
// compiler's configuration. Synthesis and the adjacency are built once,
// outside the timer.
func BenchmarkPack(b *testing.B) {
	n := synthDesign(b, "alexnet-M")
	adj, cfg := packInputs(n, Config{BlockCapacity: blockCap, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packSink = pack(n, adj, cfg)
	}
}

var packSink []*Cluster
