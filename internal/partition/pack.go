// Package partition implements ViTAL's custom partition tool (Section 4):
// a placement-based algorithm that splits a technology-mapped netlist into
// a group of virtual blocks while minimizing inter-block connections and
// keeping every block within capacity.
//
// The pipeline follows the paper exactly:
//
//  1. Packing (§4.1): greedy clustering by attraction score (Algorithm 1).
//  2. Global placement (§4.2): quadratic placement by solving a linear
//     system (step 1), simulated-annealing legalization with the Eq. 3 cost
//     (step 2), pseudo-cluster anchoring per Eq. 4 (step 3), iterated with
//     increasing anchor weight until the wirelength gap closes below 20%
//     (step 4).
package partition

import (
	"math/rand"
	"sort"

	"vital/internal/netlist"
)

// Cluster is a packed group of primitives — the unit of global placement.
type Cluster struct {
	ID    int
	Cells []netlist.CellID
	Res   netlist.Resources
	// HasIO marks clusters containing top-level IO cells; they anchor the
	// quadratic placement.
	HasIO bool
}

// packConfig controls the greedy packing stage.
type packConfig struct {
	capacity  netlist.Resources // per-cluster capacity
	maxFanout int               // adjacency fanout cap
	seed      int64
	mergeFrac float64 // clusters below this utilization get merged
}

// pack greedily clusters the netlist per Algorithm 1: start a cluster from
// a random unpacked seed primitive, then repeatedly absorb the candidate
// with the highest attraction score |S2|/|S1| (fraction of the candidate's
// neighbours already in the cluster) until the cluster reaches capacity.
func pack(n *netlist.Netlist, adj [][]netlist.Edge, cfg packConfig) []*Cluster {
	rng := rand.New(rand.NewSource(cfg.seed))
	packed := make([]int, n.NumCells())
	for i := range packed {
		packed[i] = -1
	}
	degree := make([]int, n.NumCells())
	for c := range adj {
		degree[c] = len(adj[c])
	}

	// Visit seeds in random order (the paper picks seeds randomly).
	order := rng.Perm(n.NumCells())
	var clusters []*Cluster

	// inCluster[c] counts how many of cell c's neighbours are in the
	// cluster currently being grown (reset lazily via stamps).
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
		// frontier holds the unpacked neighbours of the growing cluster.
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
			// Select the frontier candidate with the highest attraction
			// score (Algorithm 1); ties break to the lowest cell ID so the
			// result is deterministic for a given seed.
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
				// Capacity reached for this candidate's resource class;
				// exclude it from this cluster and continue with others.
				delete(frontier, best)
				continue
			}
			addCell(best)
		}
		clusters = append(clusters, cl)
	}

	return mergeSmall(n, adj, clusters, packed, cfg)
}

// mergeSmall folds under-filled clusters into their most-connected
// neighbour cluster with room — the final step of §4.1 ("small clusters
// are merged into other clusters to reduce the number of clusters").
func mergeSmall(n *netlist.Netlist, adj [][]netlist.Edge, clusters []*Cluster, packed []int, cfg packConfig) []*Cluster {
	// Order small clusters by size ascending so the smallest merge first.
	idx := make([]int, 0, len(clusters))
	for i, cl := range clusters {
		if cl.Res.MaxRatio(cfg.capacity) < cfg.mergeFrac {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return len(clusters[idx[a]].Cells) < len(clusters[idx[b]].Cells)
	})
	alive := make([]bool, len(clusters))
	for i := range alive {
		alive[i] = true
	}
	for _, i := range idx {
		cl := clusters[i]
		if !alive[i] {
			continue
		}
		// Find the most-connected other cluster that can absorb us.
		conn := map[int]int{}
		for _, c := range cl.Cells {
			for _, e := range adj[c] {
				o := packed[e.To]
				if o != i && o >= 0 && alive[o] {
					conn[o] += e.Weight
				}
			}
		}
		// Equal weights break to the lowest cluster index, so the choice
		// does not depend on the map's iteration order.
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
	// Compact.
	out := make([]*Cluster, 0, len(clusters))
	for i, cl := range clusters {
		if alive[i] {
			cl.ID = len(out)
			out = append(out, cl)
		}
	}
	return out
}
