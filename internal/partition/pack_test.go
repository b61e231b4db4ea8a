package partition

import (
	"fmt"
	"testing"

	"vital/internal/netlist"
)

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
