package core

import (
	"fmt"

	"vital/internal/interconnect"
	"vital/internal/sched"
)

// ExecutionStats reports one simulated execution of a deployed application
// over the latency-insensitive interface.
type ExecutionStats struct {
	// Tokens is the number of firings completed by every virtual block.
	Tokens uint64
	// Cycles is the simulated cycle count.
	Cycles uint64
	// GatedCycles is the total block-cycles user logic spent clock-gated
	// waiting on the interface — its stall overhead.
	GatedCycles uint64
	// NumActors is the number of virtual-block actors simulated.
	NumActors int
	// Channels counts the instantiated channels per link class.
	IntraDie, InterDie, InterFPGA int
	// DRAM traffic through the service region's virtual-memory path
	// (monitored, translated accesses in the app's protection domain).
	DRAMReadBytes, DRAMWriteBytes uint64
	// DMASeconds is the modeled DRAM transfer time at the board's
	// bandwidth (overlapped with compute in a real run).
	DMASeconds float64
	// Traffic is the per-class / per-ring-segment data-plane breakdown of
	// the run (also folded into the controller's metrics registry).
	Traffic interconnect.TrafficReport
}

// OverheadFraction is gated block-cycles over total block-cycles (the paper
// measures the interface overhead at < 0.03% of full execution time).
func (e ExecutionStats) OverheadFraction() float64 {
	if e.Cycles == 0 || e.NumActors == 0 {
		return 0
	}
	return float64(e.GatedCycles) / float64(e.Cycles*uint64(e.NumActors))
}

// MaxExecuteTokens is the largest run Execute accepts. It keeps the cycle
// budget and the DRAM byte count far from uint64 overflow and bounds the
// DMA window loop, the one per-call cost that grows with the run length.
const MaxExecuteTokens = 1 << 32

// Execute runs the deployed application for the given number of tokens on
// the cycle-level interconnect model. Each virtual block becomes a dataflow
// actor firing once per token; each generated channel is instantiated on
// the link class implied by the runtime placement (same die, cross-die, or
// cross-FPGA) — the same compiled design works for every placement, which
// is the latency-insensitive interface's purpose. Feedback channels are
// buffered and primed per Section 3.5.1 so the system provably cannot
// deadlock.
func (s *Stack) Execute(app *CompiledApp, dep *sched.Deployment, tokens uint64) (*ExecutionStats, error) {
	if dep == nil {
		return nil, fmt.Errorf("core: nil deployment")
	}
	if tokens > MaxExecuteTokens {
		return nil, fmt.Errorf("core: %d tokens, at most %d: %w", tokens, uint64(MaxExecuteTokens), ErrTooManyTokens)
	}
	nb := app.Blocks()
	if len(dep.Blocks) != nb {
		return nil, fmt.Errorf("core: deployment has %d blocks, app has %d", len(dep.Blocks), nb)
	}
	stats := &ExecutionStats{NumActors: nb}
	actors := make([]*interconnect.Actor, nb)
	for b := 0; b < nb; b++ {
		actors[b] = &interconnect.Actor{Name: fmt.Sprintf("vb%d", b), Work: tokens}
	}

	// Identify feedback edges in the block-level channel graph: channels
	// closing a cycle get buffers (elision only applies to feed-forward
	// deterministic paths) and one initial token (Section 3.5.1).
	back := findBackEdges(nb, app.Channels)

	// All inter-FPGA channels contend for the shared 100 Gbps ring; a
	// flit loads every segment it traverses, and the runtime routes each
	// channel the shorter way around.
	numBoards := len(s.Cluster.Boards)
	ringSegments := numBoards
	if ringSegments < 1 {
		ringSegments = 1
	}
	ring, err := interconnect.NewSegmentedRing(interconnect.RingBitsPerCycle, ringSegments)
	if err != nil {
		return nil, err
	}

	var channels []*interconnect.Channel
	for _, spec := range app.Channels {
		srcLoc := dep.Blocks[spec.SrcBlock]
		for _, dst := range spec.DstBlocks {
			dstLoc := dep.Blocks[dst]
			class := interconnect.IntraDie
			switch {
			case srcLoc.Board != dstLoc.Board:
				class = interconnect.InterFPGA
				stats.InterFPGA++
			case srcLoc.Die != dstLoc.Die:
				class = interconnect.InterDie
				stats.InterDie++
			default:
				stats.IntraDie++
			}
			params := interconnect.DefaultParams(class)
			// The channel carries the cut net's actual width: a 256-bit
			// stream consumes half a ring cycle, not a whole flit.
			if spec.WidthBits > 0 && spec.WidthBits < params.WidthBits {
				params.WidthBits = spec.WidthBits
			}
			isBack := back[edge{spec.SrcBlock, dst}]
			if isBack {
				// Feedback channels keep their buffers and are initialized
				// with enough tokens to cover the loop's round trip, so a
				// cycle sustains one firing per clock (Section 3.5.1:
				// "buffers in the interface are correctly initialized").
				depth := params.LatencyCycles + 8
				if params.FIFODepth < depth {
					params.FIFODepth = depth
				}
			}
			ch, err := interconnect.New(params)
			if err != nil {
				return nil, fmt.Errorf("core: channel on net %d: %w", spec.Net, err)
			}
			if isBack {
				if err := ch.Prime(params.LatencyCycles + 4); err != nil {
					return nil, fmt.Errorf("core: priming feedback channel: %w", err)
				}
			}
			if class == interconnect.InterFPGA {
				segments, cw := interconnect.PathSegments(numBoards, srcLoc.Board, dstLoc.Board)
				if err := ring.AttachPath(ch, segments, cw); err != nil {
					return nil, err
				}
			}
			channels = append(channels, ch)
			actors[spec.SrcBlock].Outs = append(actors[spec.SrcBlock].Outs, ch)
			actors[dst].Ins = append(actors[dst].Ins, ch)
		}
	}
	sys := &interconnect.System{Actors: actors, Channels: channels, Rings: []*interconnect.Ring{ring}}
	maxCycles := tokens*200 + 1_000_000
	cycles, err := sys.Run(maxCycles)
	if err != nil {
		return nil, fmt.Errorf("core: executing %s: %w", app.Name, err)
	}
	if !sys.AllDone() {
		return nil, fmt.Errorf("core: executing %s: cycle budget exhausted", app.Name)
	}
	stats.Cycles = cycles
	stats.Tokens = tokens
	for _, a := range actors {
		if a.Fired() < stats.Tokens {
			stats.Tokens = a.Fired()
		}
		stats.GatedCycles += a.Gated
	}
	stats.Traffic = sys.Traffic()
	s.Controller.RecordTraffic(app.Name, stats.Traffic)
	if err := s.dmaTraffic(app, dep, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// tokenBytes is the payload each token moves to/from DRAM (one 512-bit
// input burst and one output burst per firing).
const tokenBytes = 64

// dmaTraffic streams the run's inputs and outputs through the service
// region's virtual-memory path on the app's primary board: allocation in
// the app's domain, translated and monitored accesses, and a transfer-time
// estimate at the DRAM's bandwidth. Deployments without a memory domain
// (unit tests driving the controller directly) skip this.
func (s *Stack) dmaTraffic(app *CompiledApp, dep *sched.Deployment, stats *ExecutionStats) error {
	board := s.Cluster.Boards[dep.Blocks[0].Board]
	domain, ok := board.Mem.Domain(app.Name)
	if !ok {
		return nil
	}
	bytes := stats.Tokens * tokenBytes
	if bytes == 0 {
		return nil
	}
	// Stream through a bounded window so arbitrarily long runs respect the
	// domain's quota.
	window := uint64(domain.QuotaBytes / 4)
	if window == 0 {
		return nil
	}
	if bytes < window {
		window = bytes
	}
	va, err := board.Mem.Alloc(app.Name, window)
	if err != nil {
		return fmt.Errorf("core: DMA buffer for %s: %w", app.Name, err)
	}
	// Left mapped, every call would eat into the domain's quota. Free fails
	// only when an undeploy raced the run and took the window down with its
	// domain, which leaves nothing to release.
	defer func() { _ = board.Mem.Free(app.Name, va, window) }()
	for moved := uint64(0); moved < bytes; moved += window {
		n := window
		if bytes-moved < n {
			n = bytes - moved
		}
		if err := board.Mem.Access(app.Name, va, n, false); err != nil {
			return fmt.Errorf("core: DMA read for %s: %w", app.Name, err)
		}
		if err := board.Mem.Access(app.Name, va, n, true); err != nil {
			return fmt.Errorf("core: DMA write for %s: %w", app.Name, err)
		}
		stats.DRAMReadBytes += n
		stats.DRAMWriteBytes += n
	}
	stats.DMASeconds = board.Mem.DRAM.TransferTime(stats.DRAMReadBytes + stats.DRAMWriteBytes)
	return nil
}

type edge struct{ src, dst int }

// findBackEdges DFS-classifies block-graph edges; an edge into a vertex on
// the current DFS stack closes a cycle.
func findBackEdges(nb int, specs []ChannelSpec) map[edge]bool {
	adj := make([][]int, nb)
	for _, sp := range specs {
		adj[sp.SrcBlock] = append(adj[sp.SrcBlock], sp.DstBlocks...)
	}
	back := map[edge]bool{}
	state := make([]uint8, nb) // 0 unvisited, 1 on stack, 2 done
	var dfs func(v int)
	dfs = func(v int) {
		state[v] = 1
		for _, w := range adj[v] {
			switch state[w] {
			case 0:
				dfs(w)
			case 1:
				back[edge{v, w}] = true
			}
		}
		state[v] = 2
	}
	for v := 0; v < nb; v++ {
		if state[v] == 0 {
			dfs(v)
		}
	}
	return back
}
