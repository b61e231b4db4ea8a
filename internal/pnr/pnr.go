package pnr

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"vital/internal/fpga"
	"vital/internal/netlist"
	"vital/internal/telemetry"
)

// BlockResult is the local place-and-route outcome for one virtual block
// (Section 3.3, step 4): where every cell landed, how the nets routed, and
// the achievable clock.
type BlockResult struct {
	Block     int
	Placement *Placement
	Routing   *Routing
	Timing    TimingResult
	// UnconvergedSolves counts the placer's x and y solves that stopped
	// at their iteration cap short of the tolerance (legalization absorbs
	// the residual, so it is not an error).
	UnconvergedSolves int
	// Elapsed is the wall time of this block's P&R, feeding the Fig. 8
	// compile-time breakdown.
	Elapsed time.Duration
}

// LocalPNROptions tunes LocalPlaceAndRouteOpts.
type LocalPNROptions struct {
	// Workers bounds the per-block P&R concurrency: 0 means GOMAXPROCS,
	// 1 forces the serial flow. Per-block results are deterministic and
	// identical across worker counts — blocks share only read-only inputs
	// (netlist, adjacency, grid).
	Workers int
}

// LocalPlaceAndRoute runs P&R for every virtual block of a partitioned
// netlist: cellBlock[c] gives the block of cell c, numBlocks the block
// count, and grid the (identical) physical block geometry. Blocks are
// processed in parallel across GOMAXPROCS workers; use
// LocalPlaceAndRouteOpts to bound or serialize.
func LocalPlaceAndRoute(n *netlist.Netlist, cellBlock []int, numBlocks int, grid *fpga.Grid) ([]*BlockResult, error) {
	return LocalPlaceAndRouteOpts(context.Background(), n, cellBlock, numBlocks, grid, LocalPNROptions{})
}

// LocalPlaceAndRouteOpts is LocalPlaceAndRoute with explicit context and
// concurrency options. The first block error cancels the remaining blocks.
// Results are ordered by block index regardless of completion order, and
// each BlockResult.Elapsed is that block's own P&R wall time, so the
// Fig. 8 compile-time breakdown (which sums per-block tool time) is
// unchanged by parallelism.
func LocalPlaceAndRouteOpts(ctx context.Context, n *netlist.Netlist, cellBlock []int, numBlocks int, grid *fpga.Grid, opts LocalPNROptions) ([]*BlockResult, error) {
	if len(cellBlock) != n.NumCells() {
		return nil, fmt.Errorf("pnr: cellBlock length %d != %d cells", len(cellBlock), n.NumCells())
	}
	perBlock := make([][]netlist.CellID, numBlocks)
	for c, b := range cellBlock {
		if b < 0 || b >= numBlocks {
			return nil, fmt.Errorf("pnr: cell %d assigned to block %d of %d", c, b, numBlocks)
		}
		perBlock[b] = append(perBlock[b], netlist.CellID(c))
	}
	// The adjacency view and the timing order are identical for every
	// block: build them once per compile instead of once per block (they
	// are read-only inputs shared by all workers).
	adj := n.Adjacency(packMaxFanout)
	order, combLoop := n.TopoOrder()
	if combLoop {
		return nil, errors.New("pnr: netlist has a combinational loop, so timing has no critical path")
	}
	results := make([]*BlockResult, numBlocks)
	// Each block opens a child span under the caller's stage span (if any):
	// with workers the trace shows the fan-out/fan-in shape, since sibling
	// spans overlap in time.
	err := ParallelBlocks(ctx, numBlocks, opts.Workers, func(ctx context.Context, b int) error {
		sp := telemetry.StartChild(ctx, "pnr.block", telemetry.Int("block", b))
		defer sp.End()
		start := time.Now()
		placement, err := PlaceBlockAdj(n, perBlock[b], grid, adj)
		if err != nil {
			return fmt.Errorf("pnr: block %d: %w", b, err)
		}
		routing := RouteBlock(n, placement)
		results[b] = &BlockResult{
			Block:             b,
			Placement:         placement,
			Routing:           routing,
			Timing:            AnalyzeTiming(n, order, placement, routing),
			UnconvergedSolves: placement.unconverged,
			Elapsed:           time.Since(start),
		}
		sp.SetAttr("unconverged_solves", strconv.Itoa(placement.unconverged))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// GlobalResult is the global place-and-route outcome (Section 3.3, step 6):
// the stitched full design with inter-block connections assigned to
// latency-insensitive channels through the communication region.
type GlobalResult struct {
	// ChannelAssignments maps each cut net to a channel index on its
	// source block.
	ChannelAssignments map[netlist.NetID]int
	// InterBlockNets is the number of stitched nets; InterBlockBits their
	// summed width.
	InterBlockNets int
	InterBlockBits int
	Elapsed        time.Duration
}

// GlobalPlaceAndRoute stitches individually implemented blocks into a
// complete design: every net crossing blocks is assigned to a channel slot
// in the communication region of its driver's block.
func GlobalPlaceAndRoute(n *netlist.Netlist, cellBlock []int, numBlocks int) *GlobalResult {
	start := time.Now()
	g := &GlobalResult{ChannelAssignments: make(map[netlist.NetID]int)}
	nextChan := make([]int, numBlocks)
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == netlist.NoCell {
			continue
		}
		db := cellBlock[t.Driver]
		cut := false
		for _, s := range t.Sinks {
			if cellBlock[s] != db {
				cut = true
				break
			}
		}
		if !cut {
			continue
		}
		g.ChannelAssignments[t.ID] = nextChan[db]
		nextChan[db]++
		g.InterBlockNets++
		g.InterBlockBits += t.Width
	}
	g.Elapsed = time.Since(start)
	return g
}
