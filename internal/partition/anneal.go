package partition

import (
	"math"
	"math/rand"

	"vital/internal/netlist"
)

// legalize is step (2) of §4.2: map each cluster's continuous position to a
// virtual block and run simulated annealing with the Eq. 3 cost
//
//	Cost = Σ(α|x_i−x'_i| + |y_i−y'_i|)/N_cluster + Σ f_i/N_block
//
// where f_i is a large penalty for over-utilized blocks. Blocks are laid
// out in a row: block k occupies x ∈ [k, k+1), y ∈ [0, 1).
type legalizer struct {
	clusters []*Cluster
	g        *clusterGraph
	numBlock int
	capacity netlist.Resources
	rng      *rand.Rand

	// Continuous positions from the quadratic solve (the x', y' of Eq. 3).
	px, py []float64

	assign []int // cluster -> block
	usage  []netlist.Resources
}

// overflowPenalty is the "large positive number" f_i outputs for an
// over-utilized block.
const overflowPenalty = 1e6

func newLegalizer(clusters []*Cluster, g *clusterGraph, numBlock int, capacity netlist.Resources, px, py []float64, rng *rand.Rand) *legalizer {
	l := &legalizer{
		clusters: clusters, g: g, numBlock: numBlock, capacity: capacity,
		rng: rng, px: px, py: py,
		assign: make([]int, len(clusters)),
		usage:  make([]netlist.Resources, numBlock),
	}
	// Initial assignment: clusters sorted by x fill blocks left to right.
	// Each block targets an equal share of the total demand (not its full
	// capacity): a balanced fill tracks the quadratic placement's natural
	// module boundaries, which the annealer then only needs to polish.
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sortByX(order, px)
	var total netlist.Resources
	for _, cl := range clusters {
		total = total.Add(cl.Res)
	}
	share := netlist.Resources{
		LUTs:   (total.LUTs + numBlock - 1) / numBlock,
		DFFs:   (total.DFFs + numBlock - 1) / numBlock,
		DSPs:   (total.DSPs + numBlock - 1) / numBlock,
		BRAMKb: (total.BRAMKb + numBlock - 1) / numBlock,
	}
	blk := 0
	for _, ci := range order {
		if !l.usage[blk].Add(clusters[ci].Res).FitsIn(share) && blk < numBlock-1 {
			blk++
		}
		l.assign[ci] = blk
		l.usage[blk] = l.usage[blk].Add(clusters[ci].Res)
	}
	return l
}

// sortByX orders cluster indices by their continuous x position
// (insertion sort: stable and deterministic).
func sortByX(order []int, px []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && px[order[j]] < px[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// blockCenter returns the center of block k in placement coordinates.
func blockCenter(k int) (float64, float64) { return float64(k) + 0.5, 0.5 }

// moveCost is the Eq. 3 displacement term for one cluster in a block.
func (l *legalizer) moveCost(ci, blk int) float64 {
	bx, by := blockCenter(blk)
	return alpha*math.Abs(l.px[ci]-bx) + math.Abs(l.py[ci]-by)
}

// overflow reports whether usage exceeds capacity (f_i > 0).
func (l *legalizer) overflow(u netlist.Resources) float64 {
	if u.FitsIn(l.capacity) {
		return 0
	}
	// Scale the penalty mildly with the amount of overflow so annealing
	// has a gradient to follow.
	return overflowPenalty * (1 + u.MaxRatio(l.capacity))
}

// cost evaluates the full Eq. 3 objective.
func (l *legalizer) cost() float64 {
	move := 0.0
	for ci := range l.clusters {
		move += l.moveCost(ci, l.assign[ci])
	}
	over := 0.0
	for _, u := range l.usage {
		over += l.overflow(u)
	}
	return move/float64(len(l.clusters)) + over/float64(l.numBlock)
}

// anneal runs the simulated-annealing schedule of §4.2 step (2) and
// returns the final cost plus whether the stochastic schedule actually ran.
// Per the paper, annealing exists to resolve over-utilization: when the
// snapped assignment is already legal it is left untouched (the Eq. 3
// optimum is the snap itself), and otherwise the best state seen during the
// schedule is restored at the end.
func (l *legalizer) anneal(sweeps int) (float64, bool) {
	if l.numBlock < 2 || len(l.clusters) == 0 || l.isLegal() {
		return l.cost(), false
	}
	cur := l.cost()
	bestCost := cur
	bestAssign := make([]int, len(l.assign))
	copy(bestAssign, l.assign)
	temp := cur/4 + 1e-3
	moves := sweeps * len(l.clusters)
	nc := float64(len(l.clusters))
	nb := float64(l.numBlock)
	for m := 0; m < moves; m++ {
		ci := l.rng.Intn(len(l.clusters))
		from := l.assign[ci]
		to := l.rng.Intn(l.numBlock)
		if to == from {
			continue
		}
		res := l.clusters[ci].Res
		oldFrom, oldTo := l.usage[from], l.usage[to]
		newFrom, newTo := oldFrom.Sub(res), oldTo.Add(res)
		delta := (l.moveCost(ci, to)-l.moveCost(ci, from))/nc +
			(l.overflow(newFrom)+l.overflow(newTo)-l.overflow(oldFrom)-l.overflow(oldTo))/nb
		if delta <= 0 || l.rng.Float64() < math.Exp(-delta/temp) {
			l.assign[ci] = to
			l.usage[from], l.usage[to] = newFrom, newTo
			cur += delta
			if cur < bestCost {
				bestCost = cur
				copy(bestAssign, l.assign)
			}
		}
		if m%len(l.clusters) == len(l.clusters)-1 {
			temp *= 0.85
		}
	}
	if bestCost < cur {
		l.setAssign(bestAssign)
		cur = bestCost
	}
	return cur, true
}

// setAssign overwrites the assignment and recomputes usage.
func (l *legalizer) setAssign(assign []int) {
	copy(l.assign, assign)
	for b := range l.usage {
		l.usage[b] = netlist.Resources{}
	}
	for ci, b := range l.assign {
		l.usage[b] = l.usage[b].Add(l.clusters[ci].Res)
	}
}

// refine is the density-preserving recovery pass (the POLAR-style
// refinement cited in §4.2): greedy single-cluster moves that strictly
// reduce connected wirelength while preserving legality.
func (l *legalizer) refine(passes int) {
	adj := make([][]struct {
		other int
		w     float64
	}, len(l.clusters))
	for e, w := range l.g.edges {
		adj[e[0]] = append(adj[e[0]], struct {
			other int
			w     float64
		}{e[1], w})
		adj[e[1]] = append(adj[e[1]], struct {
			other int
			w     float64
		}{e[0], w})
	}
	for p := 0; p < passes; p++ {
		improved := false
		for ci := range l.clusters {
			from := l.assign[ci]
			// Weighted mean block of the neighbours.
			sw, sx := 0.0, 0.0
			for _, e := range adj[ci] {
				bx, _ := blockCenter(l.assign[e.other])
				sw += e.w
				sx += e.w * bx
			}
			if sw == 0 {
				continue
			}
			to := int(sx / sw)
			if to < 0 {
				to = 0
			}
			if to >= l.numBlock {
				to = l.numBlock - 1
			}
			if to == from {
				continue
			}
			res := l.clusters[ci].Res
			if !l.usage[to].Add(res).FitsIn(l.capacity) {
				continue
			}
			// Cut-weight change if we move.
			gain := 0.0
			for _, e := range adj[ci] {
				ob := l.assign[e.other]
				if ob == from {
					gain -= e.w
				}
				if ob == to {
					gain += e.w
				}
			}
			if gain > 0 {
				l.usage[from] = l.usage[from].Sub(res)
				l.usage[to] = l.usage[to].Add(res)
				l.assign[ci] = to
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// legalWirelength evaluates Eq. 1 at the legalized (block-center) positions.
func (l *legalizer) legalWirelength() float64 {
	x := make([]float64, len(l.clusters))
	y := make([]float64, len(l.clusters))
	for ci := range l.clusters {
		x[ci], y[ci] = blockCenter(l.assign[ci])
	}
	return l.g.wirelength(x, y)
}

// isLegal reports whether no block is over-utilized.
func (l *legalizer) isLegal() bool {
	for _, u := range l.usage {
		if !u.FitsIn(l.capacity) {
			return false
		}
	}
	return true
}
