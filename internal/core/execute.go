package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"vital/internal/cluster"
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
//
// When dep is the app's current placement, the run reuses the execution
// plan bound to the controller's deployment record (execPlan); any other
// placement gets a plan built for this call alone.
func (s *Stack) Execute(app *CompiledApp, dep *sched.Deployment, tokens uint64) (*ExecutionStats, error) {
	if dep == nil {
		return nil, fmt.Errorf("core: nil deployment")
	}
	if err := checkTokens(tokens); err != nil {
		return nil, err
	}
	p, ok, err := s.boundPlan(app)
	if err != nil {
		return nil, err
	}
	if !ok || !p.binds(dep) {
		if p, err = s.newExecPlan(app, dep); err != nil {
			return nil, err
		}
	}
	return s.execute(p, tokens, cycleBudget(tokens))
}

// checkTokens refuses a run longer than MaxExecuteTokens.
func checkTokens(tokens uint64) error {
	if tokens > MaxExecuteTokens {
		return fmt.Errorf("core: %d tokens, at most %d: %w", tokens, uint64(MaxExecuteTokens), ErrTooManyTokens)
	}
	return nil
}

// boundPlan returns the execution plan bound to app's current placement,
// building it on the first execute after the placement was made; ok is
// false when app is not deployed.
func (s *Stack) boundPlan(app *CompiledApp) (p *execPlan, ok bool, err error) {
	v, ok, err := s.Controller.BindDataPlane(app.Name, func(dep *sched.Deployment, bound any) (any, error) {
		if p, _ := bound.(*execPlan); p != nil && p.app == app {
			return p, nil
		}
		return s.newExecPlan(app, dep)
	})
	if !ok || err != nil {
		return nil, ok, err
	}
	return v.(*execPlan), true, nil
}

// cycleBudget is the cycle count after which a run of tokens gives up.
func cycleBudget(tokens uint64) uint64 { return tokens*200 + 1_000_000 }

// execute runs tokens through a system of p and folds the run into the
// controller's traffic metrics and the app's DMA accounting.
func (s *Stack) execute(p *execPlan, tokens, maxCycles uint64) (*ExecutionStats, error) {
	sys, err := p.take()
	if err != nil {
		return nil, err
	}
	defer p.put(sys)
	for _, a := range sys.Actors {
		a.Work = tokens
	}
	stats := &ExecutionStats{
		NumActors: len(sys.Actors),
		IntraDie:  p.classes[interconnect.IntraDie],
		InterDie:  p.classes[interconnect.InterDie],
		InterFPGA: p.classes[interconnect.InterFPGA],
	}
	cycles, err := sys.Run(maxCycles)
	if err != nil {
		return nil, fmt.Errorf("core: executing %s: %w", p.app.Name, err)
	}
	if !sys.AllDone() {
		return nil, fmt.Errorf("core: executing %s: cycle budget exhausted", p.app.Name)
	}
	stats.Cycles = cycles
	stats.Tokens = tokens
	for _, a := range sys.Actors {
		if a.Fired() < stats.Tokens {
			stats.Tokens = a.Fired()
		}
		stats.GatedCycles += a.Gated
	}
	stats.Traffic = sys.Traffic()
	s.Controller.RecordTraffic(p.app.Name, stats.Traffic)
	if err := s.dmaTraffic(p.app, p.primary, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// execPlan is one placement's data plane, bound once: the app's channels
// mapped onto the link classes and ring paths the placement implies, and a
// free list of systems built from them. An execute takes a system, resets
// it to the state it was built in, runs it and puts it back, so a reused
// system runs exactly as a freshly built one would. The plan bound to the
// controller's deployment record lives as long as the placement does.
type execPlan struct {
	// app and blocks/primary are the design and the placement the plan
	// binds; boards is the ring size its paths were routed on.
	app     *CompiledApp
	blocks  []cluster.GlobalBlockRef
	primary int
	boards  int
	// channels are the instantiated channels in the order they are built,
	// classes their count per link class.
	channels []planChannel
	classes  [3]int

	mu sync.Mutex
	// free holds idle systems, at most GOMAXPROCS of them.
	free []*interconnect.System
}

// planChannel is one channel of a plan: a cut net's link from its source
// block to one destination block.
type planChannel struct {
	src, dst int
	// params are the link class's parameters, narrowed to the net's width
	// and, on a feedback channel, deepened to cover the loop.
	params interconnect.Params
	// prime is the number of initial tokens of a feedback channel.
	prime int
	// segments and clockwise are an inter-FPGA channel's ring path.
	segments  []int
	clockwise bool
}

// newExecPlan binds app's channels to dep's placement and builds the
// plan's first system, so a plan that cannot be built is never bound.
func (s *Stack) newExecPlan(app *CompiledApp, dep *sched.Deployment) (*execPlan, error) {
	nb := app.Blocks()
	if len(dep.Blocks) != nb {
		return nil, fmt.Errorf("core: deployment has %d blocks, app has %d", len(dep.Blocks), nb)
	}
	p := &execPlan{
		app:     app,
		blocks:  slices.Clone(dep.Blocks),
		primary: dep.Primary,
		boards:  len(s.Cluster.Boards),
	}
	// Identify feedback edges in the block-level channel graph: channels
	// closing a cycle get buffers (elision only applies to feed-forward
	// deterministic paths) and one initial token (Section 3.5.1).
	back := findBackEdges(nb, app.Channels)
	for _, spec := range app.Channels {
		srcLoc := dep.Blocks[spec.SrcBlock]
		for _, dst := range spec.DstBlocks {
			dstLoc := dep.Blocks[dst]
			class := interconnect.IntraDie
			switch {
			case srcLoc.Board != dstLoc.Board:
				class = interconnect.InterFPGA
			case srcLoc.Die != dstLoc.Die:
				class = interconnect.InterDie
			}
			p.classes[class]++
			ch := planChannel{src: spec.SrcBlock, dst: dst, params: interconnect.DefaultParams(class)}
			// The channel carries the cut net's actual width: a 256-bit
			// stream consumes half a ring cycle, not a whole flit.
			if spec.WidthBits > 0 && spec.WidthBits < ch.params.WidthBits {
				ch.params.WidthBits = spec.WidthBits
			}
			if back[edge{spec.SrcBlock, dst}] {
				// Feedback channels keep their buffers and are initialized
				// with enough tokens to cover the loop's round trip, so a
				// cycle sustains one firing per clock (Section 3.5.1:
				// "buffers in the interface are correctly initialized").
				depth := ch.params.LatencyCycles + 8
				if ch.params.FIFODepth < depth {
					ch.params.FIFODepth = depth
				}
				ch.prime = ch.params.LatencyCycles + 4
			}
			if class == interconnect.InterFPGA {
				// The runtime routes each inter-FPGA channel the shorter
				// way around the ring.
				ch.segments, ch.clockwise = interconnect.PathSegments(p.boards, srcLoc.Board, dstLoc.Board)
			}
			p.channels = append(p.channels, ch)
		}
	}
	sys, err := p.build()
	if err != nil {
		return nil, err
	}
	p.free = append(p.free, sys)
	return p, nil
}

// binds reports whether p was bound to dep's placement.
func (p *execPlan) binds(dep *sched.Deployment) bool {
	return p.primary == dep.Primary && slices.Equal(p.blocks, dep.Blocks)
}

// build constructs a system of the plan: one actor per virtual block and
// its channels, with every inter-FPGA channel contending for the shared
// 100 Gbps ring, where a flit loads every segment it traverses.
func (p *execPlan) build() (*interconnect.System, error) {
	nb := len(p.blocks)
	actors := make([]*interconnect.Actor, nb)
	for b := range actors {
		actors[b] = &interconnect.Actor{Name: fmt.Sprintf("vb%d", b)}
	}
	ring, err := interconnect.NewSegmentedRing(interconnect.RingBitsPerCycle, max(p.boards, 1))
	if err != nil {
		return nil, err
	}
	channels := make([]*interconnect.Channel, len(p.channels))
	for i, pc := range p.channels {
		ch, err := interconnect.New(pc.params)
		if err != nil {
			return nil, fmt.Errorf("core: channel %d of %s: %w", i, p.app.Name, err)
		}
		if err := ch.Prime(pc.prime); err != nil {
			return nil, fmt.Errorf("core: priming feedback channel: %w", err)
		}
		if pc.params.Class == interconnect.InterFPGA {
			if err := ring.AttachPath(ch, pc.segments, pc.clockwise); err != nil {
				return nil, err
			}
		}
		channels[i] = ch
		actors[pc.src].Outs = append(actors[pc.src].Outs, ch)
		actors[pc.dst].Ins = append(actors[pc.dst].Ins, ch)
	}
	return &interconnect.System{Actors: actors, Channels: channels, Rings: []*interconnect.Ring{ring}}, nil
}

// take returns a system of the plan in the state it was built in: an idle
// one reset, or a new one.
func (p *execPlan) take() (*interconnect.System, error) {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return p.build()
	}
	sys := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	sys.Reset()
	return sys, nil
}

// put returns a system to the plan's free list, which keeps at most one
// per processor: more executes than that cannot run at once.
func (p *execPlan) put(sys *interconnect.System) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, sys)
	}
}

// tokenBytes is the payload each token moves to/from DRAM (one 512-bit
// input burst and one output burst per firing).
const tokenBytes = 64

// dmaTraffic streams the run's inputs and outputs through the service
// region's virtual-memory path on the app's primary board (the board that
// holds its memory domain, wherever its blocks have since moved): allocation in
// the app's domain, translated and monitored accesses, and a transfer-time
// estimate at the DRAM's bandwidth. Deployments without a memory domain
// (unit tests driving the controller directly) skip this.
func (s *Stack) dmaTraffic(app *CompiledApp, primary int, stats *ExecutionStats) error {
	board := s.Cluster.Boards[primary]
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
