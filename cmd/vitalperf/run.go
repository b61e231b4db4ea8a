package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"vital/internal/sched"
	"vital/internal/telemetry"
	"vital/internal/workload"
)

// sizing is everything that scales a run. full() is the benchmark; the
// tier-1 tests use short(), which keeps every code path and shrinks every
// count.
type sizing struct {
	// seconds is the measured window of one run.
	seconds time.Duration
	// setupReps is how many times an untraced run sets up (the reported
	// setup_s and compile_cold_s are medians over them; the last set-up is
	// the one measured on). A traced run sets up once.
	setupReps int

	// warm_churn: tenants (split evenly over the clients), the designs
	// they cycle through, and the ticket count the warm-up must pass so
	// the backend's ticket table, trace ring and event ring are all in
	// the steady state of a long-lived daemon (maxRetainedTickets = 8192).
	churnTenants int
	churnDesigns []string
	warmTickets  int
	churnTokens  uint64

	// cold_compile: the design list every repetition compiles cold.
	coldDesigns []string

	// sprawl_open: cluster size, tenant population, arrival rate
	// (sessions/s) and session lifetime (exponential, capped).
	sprawlBoards  int
	sprawlTenants int
	sprawlRate    float64
	meanLife      time.Duration
	capLife       time.Duration

	// execute_stream: the apps, deployed in this order on an empty
	// cluster, and the run length of one call.
	streamApps   []string
	streamTokens uint64
	streamWarm   int // unrecorded calls per app before the window

	// sprawlWarm is the unrecorded head of the open-loop schedule,
	// operatorEvery the operator's tick beside it, operatorTicks how many
	// ticks every workload takes after its window.
	sprawlWarm    time.Duration
	operatorEvery time.Duration
	operatorTicks int

	// ladderCalls is the number of timed calls per ladder rung.
	ladderCalls int
}

func full(seconds time.Duration) sizing {
	return sizing{
		seconds:       seconds,
		setupReps:     3,
		churnTenants:  32,
		churnDesigns:  []string{"lenet-S", "svhn-S", "nin-S", "cifar10-S", "alexnet-S", "resnet18-S"},
		warmTickets:   10000,
		churnTokens:   2,
		coldDesigns:   []string{"lenet-S", "cifar10-S", "svhn-M", "alexnet-S", "lenet-M", "resnet18-S", "nin-M", "alexnet-M"},
		sprawlBoards:  64,
		sprawlTenants: 256,
		sprawlRate:    100,
		meanLife:      3 * time.Second,
		capLife:       8 * time.Second,
		streamApps:    []string{"lenet-S", "nin-M", "lenet-L"},
		streamTokens:  10000,
		streamWarm:    20,
		sprawlWarm:    5 * time.Second,
		operatorEvery: time.Second,
		operatorTicks: 40,
		ladderCalls:   2000,
	}
}

func short(seconds time.Duration) sizing {
	return sizing{
		seconds:       seconds,
		setupReps:     1,
		churnTenants:  4,
		churnDesigns:  []string{"lenet-S", "svhn-S"},
		warmTickets:   40,
		churnTokens:   2,
		coldDesigns:   []string{"lenet-S", "svhn-S"},
		sprawlBoards:  8,
		sprawlTenants: 64,
		sprawlRate:    100,
		meanLife:      100 * time.Millisecond,
		capLife:       300 * time.Millisecond,
		streamApps:    []string{"lenet-S", "svhn-S"},
		streamTokens:  1000,
		streamWarm:    2,
		sprawlWarm:    200 * time.Millisecond,
		operatorEvery: 250 * time.Millisecond,
		operatorTicks: 2,
		ladderCalls:   20,
	}
}

// env is one run's fixed inputs.
type env struct {
	sz     sizing
	seed   int64
	traced bool
	// epoch is the zero of every span's clock.
	epoch time.Time
}

// rec returns recorder number n when on is set in a traced run, else nil.
func (e *env) rec(n int, on bool) *recorder {
	if !e.traced || !on {
		return nil
	}
	return newRecorder(e.epoch, n)
}

// result is one workload run.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Traced       bool                   `json:"traced"`
	Params       map[string]interface{} `json:"params"`
	ScheduleHash string                 `json:"schedule_hash"`
	// Overloaded flags a run whose generator could not keep its own
	// schedule; its latencies are not comparable with other runs'.
	Overloaded bool     `json:"overloaded"`
	EndToEnd   []metric `json:"end_to_end"`
	Layers     []metric `json:"layers"`
	// Failures are the correctness checks that did not hold; empty means
	// every output was checked and correct.
	Failures  []string `json:"failures,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`

	e2e, layer metricSet
	spans      []span
}

func (r *result) failf(format string, v ...interface{}) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, v...))
}

// seal freezes the metric sets into the exported lists.
func (r *result) seal() {
	for _, e := range append(r.e2e.errs, r.layer.errs...) {
		r.failf("%s", e)
	}
	r.EndToEnd, r.Layers = r.e2e.sorted(), r.layer.sorted()
}

// runWorkload runs one workload and returns its result; err is for a run
// that could not be carried out at all, Failures for one that ran and
// produced a wrong output.
func runWorkload(name string, sz sizing, seed int64, traced bool) (*result, error) {
	var run func(e *env, r *result) error
	for _, w := range workloadDefs {
		if w.Name == name {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	e := &env{sz: sz, seed: seed, traced: traced, epoch: time.Now()}
	r := &result{Workload: name, Seed: seed, Traced: traced, Params: map[string]interface{}{
		"seconds": sz.seconds.Seconds(),
	}}
	if err := run(e, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.seal()
	return r, nil
}

// setupStats is what the repeated set-up of a run measured.
type setupStats struct {
	setup, compileCold []float64 // seconds, one per repetition
}

// repeatSetup runs setup — boot and the cold compile of the workload's
// designs — the sizing's number of times, closes every stack but the last
// and returns that one. Repeating is what makes setup_s a median rather
// than one draw; the discarded stacks do exactly the work the kept one
// does. The load-driven warm-up that follows runs once, on the kept stack.
func repeatSetup[S any](e *env, setup func() (*tiers, S, time.Duration, error)) (*tiers, S, setupStats, error) {
	reps := e.sz.setupReps
	if e.traced {
		reps = 1
	}
	var st setupStats
	for rep := 0; ; rep++ {
		start := time.Now()
		t, state, cold, err := setup()
		if err != nil {
			var zero S
			return nil, zero, st, err
		}
		st.setup = append(st.setup, time.Since(start).Seconds())
		st.compileCold = append(st.compileCold, cold.Seconds())
		if rep == reps-1 {
			return t, state, st, nil
		}
		t.close()
	}
}

// reportSetup writes the two set-up metrics every workload has. setup_s
// is everything up to the start of the measured window: the median boot
// and cold compile, plus the warm-up.
func (r *result) reportSetup(st setupStats, warmup time.Duration) {
	r.e2e.put("setup_s", "s", median(st.setup)+warmup.Seconds(), len(st.setup))
	r.e2e.put("compile_cold_s", "s", median(st.compileCold), len(st.compileCold))
}

// An op is one unit of the workload's own work, as it enters the gated
// figures: its latency in microseconds and, where the window is cut into
// slices, when it completed, in seconds since the window began.
type opSample struct {
	us, at float64
}

// sliceSeconds is the width of a window slice, minSlices the fewest whole
// slices a window must hold for the figures to be taken per slice.
const (
	sliceSeconds = 1.0
	minSlices    = 5
)

// reportOps writes the gated throughput and latency of the workload's own
// unit of work: ops completed with every step OK per second, and their
// median latency. A window of at least minSlices seconds is cut into
// one-second slices and each figure is the median over the slices of the
// slice's own value, so a disturbance that lasts a second or two — a
// neighbour on the host, a collection — moves a few slices and not the
// result. A shorter window, or ops that take longer than a slice (sliced
// false), is taken whole.
func (r *result) reportOps(ops []opSample, window time.Duration, sliced bool) {
	rate, p50, p90 := opFigures(ops, window, sliced)
	r.e2e.put("ops_per_s", "1/s", rate, len(ops))
	r.e2e.put("op_p50_us", "us", p50, len(ops))
	r.e2e.put("op_p90_us", "us", p90, len(ops))
}

// opFigures is reportOps' arithmetic: ops per second, and the median and
// 90th-percentile latency.
func opFigures(ops []opSample, window time.Duration, sliced bool) (rate, p50, p90 float64) {
	us := column(ops, func(o opSample) float64 { return o.us })
	slices := int(window.Seconds() / sliceSeconds)
	if !sliced || slices < minSlices {
		sort.Float64s(us)
		return float64(len(ops)) / window.Seconds(), percentile(us, 50), percentile(us, 90)
	}
	per := make([][]float64, slices)
	for _, o := range ops {
		if i := int(o.at / sliceSeconds); i >= 0 && i < slices {
			per[i] = append(per[i], o.us)
		}
	}
	var rates, medians, tails []float64
	for _, p := range per {
		rates = append(rates, float64(len(p))/sliceSeconds)
		if len(p) > 0 {
			sort.Float64s(p)
			medians, tails = append(medians, percentile(p, 50)), append(tails, percentile(p, 90))
		}
	}
	return median(rates), median(medians), median(tails)
}

// eachClient runs f once per client, all at the same time, and returns
// the first error.
func eachClient(clients []*client, f func(c int, cl *client) error) error {
	errs := make(chan error, len(clients))
	for c, cl := range clients {
		go func() { errs <- f(c, cl) }()
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// precompile brings a design list from never-seen to deployed (and back
// to undeployed) through the gateway, client c taking every len(clients)-th
// design under tenants[c], and returns the wall time: the workload's cold
// compile bill. Each deployment's block count is held against Table 2.
func precompile(r *result, clients []*client, tenants []string, designs []string, tokens uint64) (time.Duration, error) {
	start := time.Now()
	done := make([]cycleTimes, len(designs))
	err := eachClient(clients, func(c int, cl *client) error {
		for i := c; i < len(designs); i += len(clients) {
			ct, err := cl.cycle(0, tenants[c], designs[i], false, tokens)
			if err == nil && !ct.cold {
				err = fmt.Errorf("the gateway had already seen it")
			}
			if err != nil {
				return fmt.Errorf("precompiling %s: %w", designs[i], err)
			}
			done[i] = ct
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	for i, ct := range done {
		r.checkBlocks(designs[i], ct.ticket)
	}
	return wall, nil
}

// touch runs one cycle of every design under every tenant, the tenants
// dealt out over the clients. The first cycle of a (tenant, design)
// instance is its rebrand round trip on the backend and creates its
// metric series on both tiers; a workload that wants neither inside its
// window touches every instance it will use first.
func touch(clients []*client, tenants, designs []string, tokens uint64) error {
	return eachClient(clients, func(c int, cl *client) error {
		for i := c; i < len(tenants); i += len(clients) {
			for _, d := range designs {
				if _, err := cl.cycle(0, tenants[i], d, false, tokens); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// takeTallies returns what the clients have tallied so far and starts
// them again from zero: how a workload separates its set-up's operations
// from its window's.
func takeTallies(clients []*client) tally {
	var sum tally
	for _, cl := range clients {
		sum.add(cl.tally)
		cl.tally = tally{}
	}
	return sum
}

// checkBlocks holds a deployed ticket against Table 2: the design's
// virtual-block count must equal the paper's.
func (r *result) checkBlocks(design string, t sched.Ticket) {
	spec, err := workload.ParseSpec(design)
	if err != nil {
		r.failf("%v", err)
		return
	}
	if t.Result == nil {
		r.failf("ticket %s for %s succeeded without a result", t.ID, design)
		return
	}
	if got, want := len(t.Result.Blocks), spec.PaperBlocks(); got != want {
		r.failf("%s deployed on %d blocks, Table 2 says %d", design, got, want)
	}
}

// ticketTimes returns a finished ticket's queue wait and worker run time
// in microseconds.
func ticketTimes(t sched.Ticket) (wait, run float64, ok bool) {
	if t.Started == nil || t.Finished == nil {
		return 0, 0, false
	}
	return micros(t.Started.Sub(t.Enqueued)), micros(t.Finished.Sub(*t.Started)), true
}

// outcome is what a workload hands to finish: the stack it measured on,
// what its clients tallied on that stack since boot (total, which the
// backend's audit counters must equal) and inside the measured window,
// the queue wait and worker run time of the tickets the window saw (of
// the set-up's, where the window deploys nothing), and the designs the
// stack should have compiled.
type outcome struct {
	t             *tiers
	total, window tally
	waits, runs   []float64
	designs       []string
	// liveApps are the instances the workload leaves deployed, in designs
	// order, for the ladder to execute as placed; nil where it leaves none.
	liveApps []string
	// scrapes are the scrape times, in milliseconds, of the operator
	// ticks a workload took beside its window.
	scrapes []float64
	// occupancy is the share of the cluster's blocks in use at the end of
	// the window, the fill the allocator rung of the ladder runs at.
	occupancy float64
	// targetRate is the open loop's scheduled arrival rate, 0 for a
	// closed loop. achievedRate is ops started per second of window (the
	// open loop's arrival rate as delivered; a closed loop's completion
	// rate), late the generator's start lateness in microseconds.
	targetRate, achievedRate float64
	late                     []float64
	// overhead is the traced ÷ untraced latency of the workload's unit
	// of work, 1 in an untraced run.
	overhead float64
}

// A run whose generator typically started its requests more than
// maxLateP50Us late, or delivered under minRateShare of its scheduled
// rate, measured its own backlog: it is flagged overloaded. The limit is
// on the median because the open loop has one connection: a request due
// while the previous one is still being answered waits for it, so the
// tail of the lateness is the tail of the system's own latency (tens of
// milliseconds beside a scrape) and is reported, not judged.
const (
	maxLateP50Us = 1000
	minRateShare = 0.98
)

// spanNames are the client-side spans whose median self time a traced run
// reports; one a workload does not record reads 0.
var spanNames = []string{"cycle", "submit", "await", "poll", "queue.wait", "deploy", "execute", "undeploy", "operator.tick", "compile"}

// finish measures what is read at the end of the window — live heap,
// scrape latency, telemetry sizes and costs — runs the correctness gate,
// and in a traced run the layer ladder.
func (e *env) finish(r *result, o outcome) error {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.e2e.put("heap_live_mb", "MiB", float64(ms.HeapAlloc)/(1<<20), 0)

	tl := o.window
	r.Attempted, r.Failed = tl.sent, tl.failed+tl.refused
	r.e2e.put("fail_ratio", "ratio", float64(r.Failed)/float64(max(tl.sent, 1)), tl.sent)

	// The gated scrape latency is an operator's ticks taken now, back to
	// back, against the state the window left behind: the cost of reading
	// what the workload built up, without the luck of what else ran in
	// the same millisecond. Ticks taken beside the window are reported
	// next to it.
	oper := o.t.newClient()
	var scrapes []float64
	for k := 0; k < e.sz.operatorTicks; k++ {
		ms, err := operatorTick(oper, 0, time.Now())
		if err != nil {
			return err
		}
		scrapes = append(scrapes, ms)
	}
	r.e2e.put("scrape_p50_ms", "ms", median(scrapes), len(scrapes))
	if len(o.scrapes) > 0 {
		r.e2e.put("scrape_loaded_p50_ms", "ms", median(o.scrapes), len(o.scrapes))
	}

	r.layer.put("loadgen.sent", "count", float64(tl.sent), 0)
	r.layer.put("loadgen.ok", "count", float64(tl.ok), 0)
	r.layer.put("loadgen.failed", "count", float64(tl.failed), 0)
	r.layer.put("loadgen.refused", "count", float64(tl.refused), 0)
	r.layer.put("loadgen.polls_per_cycle", "count", float64(tl.polls)/float64(max(tl.deploys, 1)), tl.deploys)
	r.layer.put("loadgen.achieved_rate", "1/s", o.achievedRate, 0)
	late50, late99 := 0.0, 0.0
	if len(o.late) > 0 {
		s := append([]float64(nil), o.late...)
		sort.Float64s(s)
		late50, late99 = percentile(s, 50), percentile(s, 99)
	}
	r.layer.put("loadgen.late_p50_us", "us", late50, len(o.late))
	r.layer.put("loadgen.late_p99_us", "us", late99, len(o.late))
	r.Overloaded = late50 > maxLateP50Us || o.achievedRate < minRateShare*o.targetRate
	r.layer.put("sched.async.shed", "count", float64(tl.shed), 0)
	r.layer.put("sched.async.ticket_failed_retryable", "count", float64(tl.retryable), 0)
	r.layer.put("gateway.coalesced", "count", float64(tl.coalesced), 0)
	r.layer.put("gateway.cold_submits", "count", float64(tl.cold), 0)
	r.layer.put("trace.overhead_ratio", "ratio", o.overhead, 0)

	r.layer.put("sched.async.queue_wait_us", "us", median(o.waits), len(o.waits))
	r.layer.put("sched.async.run_us", "us", median(o.runs), len(o.runs))

	e.telemetryCosts(r, o.t)
	cache, err := gate(r, o)
	if err != nil {
		return err
	}
	r.layer.put("bitstream.cache_hits", "count", float64(cache.Hits), 0)
	r.layer.put("bitstream.cache_misses", "count", float64(cache.Misses), 0)
	if e.traced {
		if err := e.ladder(r, o); err != nil {
			return err
		}
		self := selfByName(r.spans)
		for _, name := range spanNames {
			v := 0.0
			if len(self[name]) > 0 {
				v = median(self[name])
			}
			r.layer.put("span."+name+".self_p50_us", "us", v, len(self[name]))
		}
	}
	return nil
}

// telemetryCosts reads the size of both tiers' registries and stores and
// times one direct exposition and one direct TSDB scrape of each, summed
// over the tiers — what an operator's scrape costs on the state the
// workload left behind.
func (e *env) telemetryCosts(r *result, t *tiers) {
	ct := t.stack.Controller
	series := 0
	for _, reg := range []*telemetry.Registry{ct.Reg, t.gw.Reg} {
		for _, fam := range reg.Snapshot() {
			series += len(fam.Series)
		}
	}
	r.layer.put("telemetry.registry.series", "count", float64(series), 0)

	var size countWriter
	start := time.Now()
	_ = ct.Reg.WritePrometheus(&size) // countWriter cannot fail
	_ = t.gw.Reg.WritePrometheus(&size)
	r.layer.put("telemetry.registry.write_prom_ms", "ms", millis(time.Since(start)), 0)
	r.layer.put("telemetry.registry.exposition_bytes", "count", float64(size), 0)

	start = time.Now()
	now := time.Now()
	ct.TSDB.Scrape(ct.Reg, now)
	t.gw.DB.Scrape(t.gw.Reg, now)
	r.layer.put("telemetry.tsdb.scrape_ms", "ms", millis(time.Since(start)), 0)
	r.layer.put("telemetry.tsdb.series", "count", float64(ct.TSDB.SeriesCount()+t.gw.DB.SeriesCount()), 0)
	r.layer.put("telemetry.trace.evicted", "count", float64(ct.Tracer.Evicted()+t.gw.Tracer.Evicted()), 0)
}

// countWriter counts the bytes written to it.
type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// gate is the correctness check on the workload's outputs, read over
// HTTP the way an operator would: cache misses equal the designs the
// stack compiled, the client's deploy and undeploy tallies equal the
// backend's audit counters, the architectural invariants hold, and both
// tiers' expositions parse.
func gate(r *result, o outcome) (cache cacheCounts, err error) {
	aud := o.t.newClient()

	if err := aud.doJSON(http.MethodGet, o.t.backend+"/cache", "", nil, http.StatusOK, &cache); err != nil {
		return cache, err
	}
	if int(cache.Misses) != len(o.designs) {
		r.failf("backend compile cache missed %d times, the workload compiles %d distinct designs", cache.Misses, len(o.designs))
	}

	var audit struct {
		Events map[string]uint64 `json:"events"`
	}
	if err := aud.doJSON(http.MethodGet, o.t.backend+"/metrics", "", nil, http.StatusOK, &audit); err != nil {
		return cache, err
	}
	if got, want := audit.Events["deploy"], uint64(o.total.deploys); got != want {
		r.failf("backend audit log counts %d deploys, the clients saw %d succeed", got, want)
	}
	if got, want := audit.Events["undeploy"], uint64(o.total.undeploys); got != want {
		r.failf("backend audit log counts %d undeploys, the clients saw %d succeed", got, want)
	}

	if raw, err := aud.do(http.MethodGet, o.t.backend+"/verify", "", nil, http.StatusOK); err != nil {
		r.failf("GET /verify: %v", err)
	} else {
		var v struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(raw, &v); err != nil || !v.OK {
			r.failf("GET /verify answered 200 without ok: %s", raw)
		}
	}

	for _, base := range []string{o.t.backend, o.t.front} {
		raw, err := aud.do(http.MethodGet, base+"/metrics?format=prometheus", "", nil, http.StatusOK)
		if err != nil {
			return cache, err
		}
		if err := telemetry.ValidateExposition(raw); err != nil {
			r.failf("exposition of %s does not validate: %v", base, err)
		}
	}
	return cache, nil
}

// cacheCounts is the backend compile cache's GET /cache answer.
type cacheCounts struct{ Hits, Misses uint64 }
