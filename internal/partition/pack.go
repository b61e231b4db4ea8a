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
	capacity netlist.Resources // per-cluster capacity
	seed     int64
}

// pack greedily clusters the netlist per Algorithm 1: start a cluster from
// a random unpacked seed primitive, then repeatedly absorb the candidate
// with the highest attraction score |S2|/|S1| (fraction of the candidate's
// neighbours already in the cluster) until the cluster reaches capacity.
//
// §4.1 ends by merging small clusters into their neighbours. That step is
// absent because it could never fire here: a cluster stops growing only
// once every unpacked neighbour has been probed and found not to fit, and
// resources only accumulate, so no two clusters joined by an adjacency
// edge fit together in the cluster capacity — a merge has no partner.
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

	// frontier holds the unpacked neighbours of the growing cluster as a
	// dense list; pos[c] is cell c's index in it, or -1 when c is not on
	// it, so adding and swap-removing a cell are both O(1). The order of
	// the list is arbitrary: selection below does not depend on it.
	var frontier []netlist.CellID
	pos := make([]int32, n.NumCells())
	for i := range pos {
		pos[i] = -1
	}
	remove := func(c netlist.CellID) {
		i := pos[c]
		last := frontier[len(frontier)-1]
		frontier[i] = last
		pos[last] = i
		frontier = frontier[:len(frontier)-1]
		pos[c] = -1
	}

	for _, seedIdx := range order {
		seed := netlist.CellID(seedIdx)
		if packed[seed] != -1 {
			continue
		}
		curStamp++
		cl := &Cluster{ID: len(clusters)}
		addCell := func(c netlist.CellID) {
			packed[c] = cl.ID
			cl.Cells = append(cl.Cells, c)
			cl.Res.AddCell(n.Cells[c].Kind)
			if n.Cells[c].Kind == netlist.KindIO {
				cl.HasIO = true
			}
			if pos[c] >= 0 {
				remove(c)
			}
			for _, e := range adj[c] {
				if packed[e.To] == -1 {
					if stamp[e.To] != curStamp {
						stamp[e.To] = curStamp
						inCluster[e.To] = 0
					}
					inCluster[e.To]++
					if pos[e.To] < 0 {
						pos[e.To] = int32(len(frontier))
						frontier = append(frontier, e.To)
					}
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
			for _, cand := range frontier {
				score := float64(inCluster[cand]) / float64(max(degree[cand], 1))
				if score > bestScore || (score == bestScore && cand < best) {
					bestScore, best = score, cand
				}
			}
			probe := cl.Res
			probe.AddCell(n.Cells[best].Kind)
			if !probe.FitsIn(cfg.capacity) {
				// Capacity reached for this candidate's resource class;
				// exclude it from this cluster and continue with others.
				remove(best)
				continue
			}
			addCell(best)
		}
		clusters = append(clusters, cl)
	}

	return clusters
}
