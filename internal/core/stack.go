// Package core assembles the ViTAL stack (Section 3): the Programming
// Layer's single-large-FPGA illusion, the Architecture Layer's virtual-block
// abstraction, the Compilation Layer's six-step flow (Fig. 5), and the
// System Layer's runtime controller. It is the public API the examples and
// benchmarks use.
package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"vital/internal/bitstream"
	"vital/internal/cluster"
	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/partition"
	"vital/internal/pnr"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// Stack is one ViTAL installation over an FPGA cluster.
type Stack struct {
	Cluster    *cluster.Cluster
	Controller *sched.Controller
	// BlockCapacity is the virtual-block resource capacity (from the
	// Fig. 7 floorplan), Grid the physical-block site geometry.
	BlockCapacity netlist.Resources
	Grid          *fpga.Grid
	// MaxBlocksPerApp bounds the compilation-layer block search.
	MaxBlocksPerApp int

	// mu guards the fields below — the named-app registry the serving
	// tier (CompileSpec/ExecuteByName and the HTTP handler) maintains.
	mu   sync.Mutex
	apps map[string]*registeredApp
}

// registeredApp is one named compile the serving tier performed: the
// compiled artifacts plus the design key they were compiled from, kept so
// a repeat CompileSpec under the same name can detect whether it is a
// harmless retry (same design) or a conflict (different design).
type registeredApp struct {
	app  *CompiledApp
	dkey bitstream.CacheKey
}

// NewStack builds a stack over the given cluster (nil selects the paper's
// default four-board cluster).
func NewStack(c *cluster.Cluster) *Stack {
	return NewStackWithOptions(c, sched.Options{})
}

// NewStackWithOptions builds a stack with explicit controller options, e.g.
// sched.Options{VerifyOnDeploy: true} to re-check the architectural
// invariants after every deployment.
func NewStackWithOptions(c *cluster.Cluster, opts sched.Options) *Stack {
	if c == nil {
		c = cluster.Default()
	}
	dev := c.Boards[0].Device
	s := &Stack{
		Cluster:         c,
		Controller:      sched.NewControllerWithOptions(c, opts),
		BlockCapacity:   dev.BlockResources(),
		Grid:            fpga.NewGrid(dev.BlockShape()),
		MaxBlocksPerApp: c.TotalBlocks(),
		apps:            map[string]*registeredApp{},
	}
	// Closing the controller ends the stack: the named apps go with the
	// compile cache, so a closed stack pins no compiled design.
	s.Controller.OnClose(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.apps = map[string]*registeredApp{}
	})
	return s
}

// CompileOptions tunes the compilation flow.
type CompileOptions struct {
	// Workers bounds the per-virtual-block parallelism of steps 4 and 5
	// (local P&R and relocation validation): 0 means GOMAXPROCS, 1 forces
	// the serial flow. The compiled artifacts are bit-identical across
	// worker counts.
	Workers int
	// NoCache bypasses the controller's compile cache for this compile:
	// the full flow runs and its result is not stored.
	NoCache bool
}

// StageTimes is the Fig. 8 compile-time breakdown: tool time per stage of
// the Fig. 5 flow. For the per-block stages (LocalPNR, Relocation) this is
// the sum of per-block times, not wall clock — the breakdown measures how
// much work each tool does, so it is invariant under the worker count.
// CompiledApp.Wall carries the elapsed wall clock.
type StageTimes struct {
	Synthesis    time.Duration
	Partition    time.Duration
	InterfaceGen time.Duration
	LocalPNR     time.Duration
	Relocation   time.Duration
	GlobalPNR    time.Duration
}

// Total sums all stages.
func (st StageTimes) Total() time.Duration {
	return st.Synthesis + st.Partition + st.InterfaceGen + st.LocalPNR + st.Relocation + st.GlobalPNR
}

// CustomToolFraction returns the share of compile time spent in ViTAL's
// custom tools (partition + interface generation + relocation) — the
// paper reports 1.6% on average, with P&R dominating at 83.9%.
func (st StageTimes) CustomToolFraction() float64 {
	t := st.Total()
	if t == 0 {
		return 0
	}
	return float64(st.Partition+st.InterfaceGen+st.Relocation) / float64(t)
}

// PNRFraction returns the share spent in the reused commercial P&R stages.
func (st StageTimes) PNRFraction() float64 {
	t := st.Total()
	if t == 0 {
		return 0
	}
	return float64(st.LocalPNR+st.GlobalPNR) / float64(t)
}

// ChannelSpec is one generated latency-insensitive channel: a cut net
// mapped onto the inter-block interface (Section 3.3, step 3).
type ChannelSpec struct {
	Net       netlist.NetID
	WidthBits int
	SrcBlock  int
	DstBlocks []int
}

// CompiledApp is an application after the offline compilation flow:
// position-independent virtual blocks ready for runtime placement.
type CompiledApp struct {
	Name      string
	Netlist   *netlist.Netlist
	Partition *partition.Result
	// BlockResults holds each virtual block's local P&R result.
	BlockResults []*pnr.BlockResult
	// Channels is the generated latency-insensitive interface.
	Channels []ChannelSpec
	// Bitstreams holds one relocatable image per virtual block.
	Bitstreams []*bitstream.Bitstream
	// Global is the stitched design.
	Global *pnr.GlobalResult
	// Times is the Fig. 8 stage breakdown; FminMHz the worst block Fmax.
	Times   StageTimes
	FminMHz float64
	// Wall is the compile's elapsed wall clock (≤ Times.Total() when the
	// per-block stages ran in parallel); CacheHit reports that steps 2–6
	// were served from the controller's compile cache.
	Wall     time.Duration
	CacheHit bool
}

// Blocks returns the number of virtual blocks.
func (a *CompiledApp) Blocks() int { return a.Partition.NumBlocks }

// partitionSeed drives the partitioner's stochastic stages; it is fixed so
// compiles are reproducible, and it is part of the compile cache key.
const partitionSeed = 11

// Compile runs the full Fig. 5 flow on a design written against the
// Programming Layer and registers the result with the system controller's
// bitstream database. Per-block work runs across GOMAXPROCS workers and
// repeat compiles are served from the controller's compile cache; use
// CompileWithOptions to tune either.
func (s *Stack) Compile(d *hls.Design) (*CompiledApp, error) {
	return s.CompileWithOptions(context.Background(), d, CompileOptions{})
}

// CompileWithOptions is Compile with explicit cancellation and options.
//
// Steps 4 (local P&R) and 5 (relocation validation) are embarrassingly
// parallel across virtual blocks — the blocks are identical and position
// independent (Section 3.2) — and run on a bounded worker pool; the first
// error cancels the rest. The flow is deterministic, so the artifacts are
// bit-identical whatever the worker count.
//
// Before doing any work the controller's compile cache is consulted, at
// two levels. The authoritative key is content-addressed over the
// synthesized netlist's structure plus the compile parameters (block
// capacity, partition seed, block search bound, grid shape — never a
// name). A cheaper pre-synthesis key over the design's operator-graph
// structure is registered as an alias for it, so recompiling a design the
// cluster has seen — many tenants deploying the same accelerator under
// different names — skips the whole flow, synthesis included: a hash, a
// lookup, and a rebranding clone of the cached artifacts.
// Every compile runs under a root "compile" span in the controller's
// tracer, with one child span per Fig. 5 stage and one per block inside
// the parallel stages, so a retrieved trace reproduces the Fig. 8
// breakdown and shows the fan-out shape of steps 4 and 5. Wall time lands
// in the vital_compile_seconds{cache=hit|miss} histogram and per-stage
// wall time in vital_compile_stage_seconds{stage=...}.
func (s *Stack) CompileWithOptions(ctx context.Context, d *hls.Design, opts CompileOptions) (out *CompiledApp, err error) {
	wallStart := time.Now()
	// StartSpan continues the request's trace when ctx carries one (a
	// gateway submit arriving through the instrumented /compile route);
	// an untraced caller still gets a fresh root, as before.
	sp := s.Controller.Tracer.StartSpan(ctx, "compile",
		telemetry.String("app", d.Name),
		telemetry.Int("workers", opts.Workers))
	defer func() {
		result := "miss"
		if out != nil && out.CacheHit {
			result = "hit"
		}
		sp.SetAttr("cache", result)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		traceID := sp.TraceID()
		sp.End()
		s.Controller.Reg.Histogram("vital_compile_seconds",
			"End-to-end compile wall time by cache outcome.", nil,
			telemetry.L("cache", result)).ObserveExemplar(time.Since(wallStart).Seconds(), traceID)
	}()
	app := &CompiledApp{Name: d.Name}

	cache := s.Controller.Cache
	useCache := cache != nil && !opts.NoCache
	var dkey bitstream.CacheKey
	if useCache {
		// Fast path: a design structurally identical to one already
		// compiled resolves to its compile key before synthesis runs.
		csp := sp.Child("cache.lookup", telemetry.String("key", "design"))
		dkey = s.designKey(d)
		key, ok := cache.Resolve(dkey)
		var v interface{}
		if ok {
			v, ok = cache.Get(key)
		}
		csp.SetAttr("hit", strconv.FormatBool(ok))
		csp.End()
		if ok {
			return s.serveCacheHit(v.(*CompiledApp), d.Name, wallStart)
		}
	}

	// Step 1 — synthesis (reused commercial front end).
	t0 := time.Now()
	ssp := sp.Child("synthesis")
	synth, err := hls.Synthesize(d)
	ssp.End()
	s.stageHist("synthesis").ObserveSince(t0)
	if err != nil {
		return nil, fmt.Errorf("core: synthesis of %s: %w", d.Name, err)
	}
	app.Netlist = synth.Netlist
	app.Times.Synthesis = time.Since(t0)

	var key bitstream.CacheKey
	if useCache {
		key = bitstream.CompileKey(app.Netlist, s.BlockCapacity, partitionSeed, s.MaxBlocksPerApp, s.Grid.Shape)
		csp := sp.Child("cache.lookup", telemetry.String("key", "netlist"))
		v, ok := cache.Get(key)
		csp.SetAttr("hit", strconv.FormatBool(ok))
		csp.End()
		if ok {
			// Different design structure, same netlist: remember the new
			// alias so the next compile of this design skips synthesis.
			cache.AddAlias(dkey, key)
			hit, err := s.serveCacheHit(v.(*CompiledApp), d.Name, wallStart)
			if err != nil {
				return nil, err
			}
			hit.Netlist = app.Netlist
			hit.Times.Synthesis = app.Times.Synthesis
			return hit, nil
		}
	}

	// Step 2 — partition (custom tool, Section 4).
	t0 = time.Now()
	ssp = sp.Child("partition")
	part, err := partition.Auto(app.Netlist, partition.Config{
		BlockCapacity: s.BlockCapacity,
		Seed:          partitionSeed,
	}, s.MaxBlocksPerApp)
	ssp.End()
	s.stageHist("partition").ObserveSince(t0)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning %s: %w", d.Name, err)
	}
	app.Partition = part
	app.Times.Partition = time.Since(t0)

	// Step 3 — latency-insensitive interface generation (custom tool).
	t0 = time.Now()
	ssp = sp.Child("interface_gen")
	app.Channels = generateInterface(app.Netlist, part)
	ssp.End()
	s.stageHist("interface_gen").ObserveSince(t0)
	app.Times.InterfaceGen = time.Since(t0)

	// Step 4 — local place-and-route (reused commercial back end), in
	// parallel across virtual blocks. The stage time is the summed
	// per-block tool time, so the Fig. 8 breakdown does not depend on the
	// worker count. The stage span carries one pnr.block child per virtual
	// block (opened by the workers via the span-carrying context).
	t0 = time.Now()
	ssp = sp.Child("local_pnr", telemetry.Int("blocks", part.NumBlocks))
	blocks, err := pnr.LocalPlaceAndRouteOpts(telemetry.ContextWithSpan(ctx, ssp),
		app.Netlist, part.CellBlock, part.NumBlocks, s.Grid,
		pnr.LocalPNROptions{Workers: opts.Workers})
	ssp.End()
	s.stageHist("local_pnr").ObserveSince(t0)
	if err != nil {
		return nil, fmt.Errorf("core: local P&R of %s: %w", d.Name, err)
	}
	app.BlockResults = blocks
	app.FminMHz = blocks[0].Timing.FmaxMHz
	for _, b := range blocks {
		app.Times.LocalPNR += b.Elapsed
		if b.Timing.FmaxMHz < app.FminMHz {
			app.FminMHz = b.Timing.FmaxMHz
		}
	}

	// Step 5 — relocation (custom tool, RapidWright-style): emit each
	// virtual block's image at the canonical base; relocatability to every
	// physical block is what the runtime exploits. Independent per block,
	// so it shares the step-4 worker pool shape.
	device := s.Cluster.Boards[0].Device
	probe := device.Blocks()[device.NumBlocks()-1]
	app.Bitstreams = make([]*bitstream.Bitstream, len(blocks))
	relocElapsed := make([]time.Duration, len(blocks))
	t0 = time.Now()
	ssp = sp.Child("relocation", telemetry.Int("blocks", len(blocks)))
	err = pnr.ParallelBlocks(telemetry.ContextWithSpan(ctx, ssp), len(blocks), opts.Workers, func(ctx context.Context, i int) error {
		bsp := telemetry.StartChild(ctx, "relocate.block", telemetry.Int("block", i))
		defer bsp.End()
		start := time.Now()
		img := bitstream.FromPlacement(d.Name, i, blocks[i].Placement, fpga.BlockRef{})
		// Exercise a relocation round trip, as the flow does to validate
		// position independence.
		moved, err := img.Relocate(probe, device)
		if err != nil {
			return fmt.Errorf("core: relocating %s/vb%d: %w", d.Name, i, err)
		}
		if img, err = moved.Relocate(fpga.BlockRef{}, device); err != nil {
			return fmt.Errorf("core: relocating %s/vb%d back: %w", d.Name, i, err)
		}
		app.Bitstreams[i] = img
		relocElapsed[i] = time.Since(start)
		return nil
	})
	ssp.End()
	s.stageHist("relocation").ObserveSince(t0)
	if err != nil {
		return nil, err
	}
	for _, e := range relocElapsed {
		app.Times.Relocation += e
	}

	// Step 6 — global place-and-route (reused commercial back end).
	t0 = time.Now()
	ssp = sp.Child("global_pnr")
	app.Global = pnr.GlobalPlaceAndRoute(app.Netlist, part.CellBlock, part.NumBlocks)
	ssp.End()
	s.stageHist("global_pnr").ObserveSince(t0)
	app.Times.GlobalPNR = time.Since(t0)

	ssp = sp.Child("store")
	if err := s.Controller.Bitstreams.Store(d.Name, app.Bitstreams); err != nil {
		ssp.End()
		return nil, fmt.Errorf("core: storing bitstreams of %s: %w", d.Name, err)
	}
	s.Controller.Bitstreams.StoreChannels(d.Name, blockEdges(app.Channels))
	if useCache {
		// Cache a private clone: entries are shared across tenants and
		// treated as immutable, so the caller's app must not alias them.
		cache.Put(key, app.cloneFor(app.Name))
		cache.AddAlias(dkey, key)
	}
	ssp.End()
	app.Wall = time.Since(wallStart)
	return app, nil
}

// stageHist returns the per-stage compile-time histogram — the Fig. 8
// breakdown as a live metric.
func (s *Stack) stageHist(stage string) *telemetry.Histogram {
	return s.Controller.Reg.Histogram("vital_compile_stage_seconds",
		"Per-stage compile wall time (Fig. 8 breakdown).", nil,
		telemetry.L("stage", stage))
}

// serveCacheHit turns a cache entry into this tenant's compiled app: a
// rebranding clone (frames shared, never copied) registered with the
// bitstream database. The entry's netlist is shared read-only — its net
// names carry the original tenant's design name, which is cosmetic.
// Times is zeroed: no tool ran; Wall records what the hit actually cost.
func (s *Stack) serveCacheHit(entry *CompiledApp, name string, wallStart time.Time) (*CompiledApp, error) {
	hit := entry.cloneFor(name)
	hit.Times = StageTimes{}
	hit.CacheHit = true
	if err := s.Controller.Bitstreams.Store(name, hit.Bitstreams); err != nil {
		return nil, fmt.Errorf("core: storing bitstreams of %s: %w", name, err)
	}
	s.Controller.Bitstreams.StoreChannels(name, blockEdges(hit.Channels))
	hit.Wall = time.Since(wallStart)
	return hit, nil
}

// blockEdges flattens the compiled channel specs into the directed
// block-to-block edge list the runtime's placement scorer consumes.
func blockEdges(specs []ChannelSpec) []bitstream.BlockEdge {
	var edges []bitstream.BlockEdge
	for _, sp := range specs {
		for _, dst := range sp.DstBlocks {
			edges = append(edges, bitstream.BlockEdge{Src: sp.SrcBlock, Dst: dst})
		}
	}
	return edges
}

// cloneFor copies the compiled artifacts under a new application name:
// top-level slices are fresh, bitstreams are rebranded (frames shared —
// the payload never encodes the name), and the deep structures
// (partition, block results, global result) are shared read-only.
func (a *CompiledApp) cloneFor(name string) *CompiledApp {
	c := *a
	c.Name = name
	c.BlockResults = append([]*pnr.BlockResult(nil), a.BlockResults...)
	c.Channels = append([]ChannelSpec(nil), a.Channels...)
	c.Bitstreams = make([]*bitstream.Bitstream, len(a.Bitstreams))
	for i, b := range a.Bitstreams {
		c.Bitstreams[i] = b.Rebrand(name)
	}
	return &c
}

// generateInterface derives the latency-insensitive channel set from the
// partition's cut nets: one channel per cut net, endpoints at the driver
// block and every foreign sink block.
func generateInterface(n *netlist.Netlist, part *partition.Result) []ChannelSpec {
	var specs []ChannelSpec
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == netlist.NoCell {
			continue
		}
		src := part.CellBlock[t.Driver]
		var dsts []int
		seen := map[int]bool{src: true}
		for _, s := range t.Sinks {
			b := part.CellBlock[s]
			if !seen[b] {
				seen[b] = true
				dsts = append(dsts, b)
			}
		}
		if len(dsts) == 0 {
			continue
		}
		specs = append(specs, ChannelSpec{Net: t.ID, WidthBits: t.Width, SrcBlock: src, DstBlocks: dsts})
	}
	return specs
}

// Deploy places a compiled application onto the cluster through the system
// controller (runtime resource allocation, Section 3.4).
func (s *Stack) Deploy(app *CompiledApp, memQuota uint64) (*sched.Deployment, error) {
	return s.Controller.Deploy(app.Name, memQuota)
}

// Undeploy stops an application.
func (s *Stack) Undeploy(app *CompiledApp) error {
	return s.Controller.Undeploy(app.Name)
}
