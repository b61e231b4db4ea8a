package partition

import (
	"errors"
	"fmt"
	"math/rand"

	"vital/internal/netlist"
)

// This file provides the §5.4 comparison baseline: the same packing and
// capacity constraints, but no placement-based optimization — clusters fill
// blocks contiguously in netlist order. The "required bandwidth of
// inter-block interconnections" is the peak per-block cut bandwidth, which
// is what sizes the latency-insensitive interface.

// BandwidthRequirement returns the maximum over blocks of ingress+egress
// cut bits for an arbitrary cell→block assignment, counting every net
// (sidebands included — they are physical wires the interface must carry).
func BandwidthRequirement(n *netlist.Netlist, cellBlock []int, numBlocks int) int {
	in := make([]int, numBlocks)
	out := make([]int, numBlocks)
	seen := map[int]bool{}
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == netlist.NoCell {
			continue
		}
		db := cellBlock[t.Driver]
		clear(seen)
		for _, s := range t.Sinks {
			b := cellBlock[s]
			if b != db && !seen[b] {
				seen[b] = true
				in[b] += t.Width
			}
		}
		if len(seen) > 0 {
			out[db] += t.Width
		}
	}
	peak := 0
	for b := 0; b < numBlocks; b++ {
		if v := in[b] + out[b]; v > peak {
			peak = v
		}
	}
	return peak
}

// RandomBalanced produces a connectivity-blind ablation assignment: packed
// clusters are shuffled and fill blocks against balanced shares. It
// isolates the value of the quadratic-placement ordering: same packing,
// same capacity discipline, no placement information at all.
func RandomBalanced(n *netlist.Netlist, numBlocks int, cfg Config, seed int64) ([]int, error) {
	p, err := prepare(n, cfg)
	if err != nil {
		return nil, err
	}
	if numBlocks < 1 {
		return nil, fmt.Errorf("partition: numBlocks must be >= 1, got %d", numBlocks)
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(p.clusters))
	var total netlist.Resources
	for _, cl := range p.clusters {
		total = total.Add(cl.Res)
	}
	share := netlist.Resources{
		LUTs:   (total.LUTs + numBlocks - 1) / numBlocks,
		DFFs:   (total.DFFs + numBlocks - 1) / numBlocks,
		DSPs:   (total.DSPs + numBlocks - 1) / numBlocks,
		BRAMKb: (total.BRAMKb + numBlocks - 1) / numBlocks,
	}
	usage := make([]netlist.Resources, numBlocks)
	assign := make([]int, len(p.clusters))
	blk := 0
	for _, ci := range order {
		if !usage[blk].Add(p.clusters[ci].Res).FitsIn(share) && blk < numBlocks-1 {
			blk++
		}
		assign[ci] = blk
		usage[blk] = usage[blk].Add(p.clusters[ci].Res)
	}
	cellBlock := make([]int, n.NumCells())
	for c := range cellBlock {
		cellBlock[c] = assign[p.clusterOf[c]]
	}
	return cellBlock, nil
}

// NaiveContiguous produces the unoptimized cell→block assignment: cells
// fill each block to capacity in netlist order (first fit), with no
// attraction packing and no placement information — the strategy a
// resource-only tool would use. It is the ablation baseline for the
// paper's 2.1× bandwidth-reduction claim.
func NaiveContiguous(n *netlist.Netlist, numBlocks int, cfg Config) ([]int, error) {
	if cfg.BlockCapacity.IsZero() {
		return nil, errors.New("partition: BlockCapacity not set")
	}
	if numBlocks < 1 {
		return nil, fmt.Errorf("partition: numBlocks must be >= 1, got %d", numBlocks)
	}
	cellBlock := make([]int, n.NumCells())
	var usage netlist.Resources
	blk := 0
	for c := range n.Cells {
		probe := usage
		probe.AddCell(n.Cells[c].Kind)
		if !probe.FitsIn(cfg.BlockCapacity) && blk < numBlocks-1 {
			blk++
			usage = netlist.Resources{}
			probe = netlist.Resources{}
			probe.AddCell(n.Cells[c].Kind)
		}
		usage = probe
		cellBlock[c] = blk
	}
	return cellBlock, nil
}
