package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vital/internal/gateway"
	"vital/internal/sched"
)

// designMix is the skewed design population tenants submit from (-designs
// takes a prefix). Mostly small designs so the 60-block cluster sustains
// high deployment churn.
var designMix = []string{
	"lenet-S", "svhn-S", "nin-S", "alexnet-S", "cifar10-S",
	"vgg16-S", "resnet18-S", "lenet-M", "svhn-M", "nin-M",
}

// soak is the admission-tier soak and its five checks.
type soak struct {
	*stack
	// The flags.
	tenants     int
	designs     int
	ops         int
	concurrency int
	rate        float64
	burst       int
	qdepth      int
	qworkers    int
	p99         time.Duration
	submitP99   time.Duration
	warmup      int
	tokens      uint64
	seed        int64
	probe       bool
	verbose     bool

	names     []string // the tenants'
	coalesced atomic.Int64
	deploys   atomic.Int64 // succeeded tickets (client side)
	undeploys atomic.Int64 // 200 undeploys (client side)
	executes  atomic.Int64

	mu        sync.Mutex
	warmNanos []int64 // client-observed /submit latency, warm path only
	coldNanos []int64
}

func parseSoak(args []string) (func() []string, error) {
	fs := newFlags("soak")
	s := &soak{}
	fs.IntVar(&s.tenants, "tenants", 200, "simulated tenants")
	fs.IntVar(&s.designs, "designs", 10, "distinct designs in the mix (≤ 10)")
	fs.IntVar(&s.ops, "ops", 300, "deploy/execute/undeploy cycles to complete")
	fs.IntVar(&s.concurrency, "concurrency", 24, "concurrent tenant clients")
	fs.Float64Var(&s.rate, "rate", 500, "per-tenant admission rate (submissions/s)")
	fs.IntVar(&s.burst, "burst", 1000, "per-tenant admission burst")
	fs.IntVar(&s.qdepth, "qdepth", 64, "async queue capacity per priority class")
	fs.IntVar(&s.qworkers, "qworkers", 4, "async deploy workers")
	fs.DurationVar(&s.p99, "p99", 10*time.Millisecond, "p99 ceiling on the backend's async admission latency (request arrival to ticket issued)")
	fs.DurationVar(&s.submitP99, "submit-p99", 250*time.Millisecond, "p99 ceiling on steady-state end-to-end /submit round trips (client → gateway → backend and back)")
	fs.IntVar(&s.warmup, "warmup", -1, "cycles before latency recording starts (-1 = ops/3); the cold design compiles land here")
	fs.Uint64Var(&s.tokens, "execute-tokens", 2, "tokens per execution")
	fs.Int64Var(&s.seed, "seed", 1, "churn RNG seed")
	fs.BoolVar(&s.probe, "probe", true, "run the paused-pipeline backpressure probe")
	fs.BoolVar(&s.verbose, "v", false, "log every request outcome")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case s.designs < 1 || s.designs > len(designMix):
		return nil, invalid(fs, "-designs must be 1..%d", len(designMix))
	case s.tenants < 1, s.ops < 1, s.concurrency < 1:
		return nil, invalid(fs, "-tenants, -ops and -concurrency must be positive")
	}
	s.concurrency = min(s.concurrency, s.tenants)
	if s.warmup < 0 {
		s.warmup = s.ops / 3
	}
	return s.run, nil
}

func (s *soak) run() []string {
	creds := map[string]string{}
	for i := 0; i < s.tenants; i++ {
		s.names = append(s.names, fmt.Sprintf("t%03d", i))
		creds[token(s.names[i])] = s.names[i]
	}
	// Zero For-duration so queue_saturated fires on the first evaluation
	// during the backpressure probe.
	th := sched.DefaultAlertThresholds()
	th.QueueSaturationFor = 0
	opts := sched.Options{Alerts: &th, QueueDepth: s.qdepth, QueueWorkers: s.qworkers}
	gw := gateway.Config{
		Tokens: creds,
		Rate:   s.rate,
		Burst:  s.burst,
		// Cold compiles of the larger Table 2 designs can outlast the
		// gateway's default 30 s backend timeout on a loaded host (the CI
		// smoke runs under the race detector on shared runners); the soak
		// asserts latency itself, so the client timeout only guards hangs.
		Client: &http.Client{Timeout: 10 * time.Minute},
	}
	return run(opts, gw, func(st *stack) {
		s.stack = st
		log.Printf("backend %s, gateway %s", st.backend, st.front)
		start := time.Now()
		s.churn()
		churnWall := time.Since(start)

		// Audit parity must be read before the probe: probe tickets churn
		// the event counters without client-side bookkeeping.
		s.checkDedup()
		s.checkLatency()
		s.checkAudit()
		s.checkSeriesLifecycle()
		if s.probe {
			s.checkBackpressure()
		}

		s.mu.Lock()
		defer s.mu.Unlock()
		log.Printf("churn: %d cycles in %v (%d tenants, %d designs, %d clients): %d deploys, %d executes, %d undeploys, %d coalesced, %d warm / %d cold submissions",
			s.ops, churnWall.Round(time.Millisecond), s.tenants, s.designs, s.concurrency,
			s.deploys.Load(), s.executes.Load(), s.undeploys.Load(), s.coalesced.Load(), len(s.warmNanos), len(s.coldNanos))
	})
}

// churn runs the deploy/execute/undeploy cycles across the worker pool.
// Every worker's first cycle submits designMix[0], so the opening wave is
// a deliberate cold-compile collision the coalescing assertion feeds on;
// after that the design choice is zipf-skewed.
func (s *soak) churn() {
	var remaining atomic.Int64
	remaining.Store(int64(s.ops))
	var wg sync.WaitGroup
	for w := 0; w < s.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(s.seed + int64(w)))
			zipf := rand.NewZipf(r, 1.4, 1, uint64(s.designs-1))
			for iter := 0; ; iter++ {
				left := remaining.Add(-1)
				if left < 0 {
					return
				}
				// Cycle index in claim order; the first -warmup cycles are
				// unrecorded so the latency population is steady state (the
				// cold design compiles land in the warm-up window).
				idx := int64(s.ops) - 1 - left
				record := idx >= int64(s.warmup)
				// Workers own disjoint tenant slices, so one tenant never
				// races itself on an app name.
				t := s.names[w+(iter%(s.tenants/s.concurrency))*s.concurrency]
				design := designMix[0]
				if iter > 0 {
					design = designMix[zipf.Uint64()]
				}
				priority := "latency"
				if r.Intn(5) == 0 {
					priority = "batch"
				}
				if err := s.cycle(t, design, priority, record); err != nil {
					s.failf("cycle tenant=%s design=%s: %v", t, design, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// soakPacing fails a ticket whose app is still deployed: no tenant races itself.
var soakPacing = pacing{backoff: 5 * time.Millisecond}

// cycle is one full tenant interaction: deploy (retrying sheds and
// capacity losses), execute, undeploy.
func (s *soak) cycle(t, design, priority string, record bool) error {
	req := map[string]interface{}{"design": design, "priority": priority}
	app, err := s.deploy(t, req, soakPacing, func(sub *submitted, r *reply) {
		if s.verbose {
			log.Printf("202 %s cold=%v coalesced=%v ticket=%s in %v", sub.App, sub.ColdCompile, sub.Coalesced, sub.Ticket.ID, r.took)
		}
		if sub.Coalesced {
			s.coalesced.Add(1)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if record {
			if sub.ColdCompile {
				s.coldNanos = append(s.coldNanos, int64(r.took))
			} else {
				s.warmNanos = append(s.warmNanos, int64(r.took))
			}
		}
	})
	if err != nil {
		return err
	}
	s.deploys.Add(1)
	if err := s.post(t, s.front+"/execute", map[string]interface{}{"app": app, "tokens": s.tokens}); err != nil {
		return fmt.Errorf("execute %s: %w", app, err)
	}
	s.executes.Add(1)
	if err := s.post(t, s.front+"/undeploy", map[string]string{"app": app}); err != nil {
		return fmt.Errorf("undeploy %s: %w", app, err)
	}
	s.undeploys.Add(1)
	return nil
}

// checkDedup asserts tenants shared compiles: backend cache misses stay
// bounded by the design count (one cold compile per distinct design) and
// at least one submission coalesced onto an in-flight compile.
func (s *soak) checkDedup() {
	var st struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	}
	if err := s.getJSON(s.backend+"/cache", &st); err != nil {
		s.failf("reading backend cache stats: %v", err)
		return
	}
	if st.Misses > uint64(s.designs) {
		s.failf("compile dedup: %d cache misses for %d designs — tenants are not sharing compiles", st.Misses, s.designs)
	}
	coalesced := s.coalesced.Load()
	if s.concurrency > 1 && coalesced == 0 {
		s.failf("compile dedup: no submission coalesced despite %d concurrent clients opening on the same design", s.concurrency)
	}
	log.Printf("dedup: %d hits / %d misses for %d designs, %d coalesced submissions", st.Hits, st.Misses, s.designs, coalesced)
}

// checkLatency asserts two p99 ceilings: the backend's async admission
// latency proper (vital_queue_admission_seconds — request arrival at the
// pipeline to ticket issued or shed, the quantity the <10ms acceptance
// target names) and, as an end-to-end regression guard, the steady-state
// client-observed warm-path /submit round trip, which on a loaded host
// additionally measures scheduler and transport noise and gets a looser
// ceiling.
func (s *soak) checkLatency() {
	var qs struct {
		AdmissionSeconds struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50_seconds"`
			P99   float64 `json:"p99_seconds"`
		} `json:"admission_seconds"`
	}
	if err := s.getJSON(s.backend+"/queue", &qs); err != nil {
		s.failf("reading backend queue stats: %v", err)
		return
	}
	admitP99 := time.Duration(qs.AdmissionSeconds.P99 * float64(time.Second))
	log.Printf("async admission latency (n=%d): p50=%v p99=%v (ceiling %v)",
		qs.AdmissionSeconds.Count,
		time.Duration(qs.AdmissionSeconds.P50*float64(time.Second)), admitP99, s.p99)
	if qs.AdmissionSeconds.Count == 0 {
		s.failf("admission latency: backend admission histogram is empty")
	} else if admitP99 >= s.p99 {
		s.failf("admission latency: p99 %v ≥ ceiling %v", admitP99, s.p99)
	}

	s.mu.Lock()
	warm := append([]int64(nil), s.warmNanos...)
	s.mu.Unlock()
	if len(warm) == 0 {
		s.failf("submit latency: no steady-state warm-path submissions recorded (raise -ops or lower -warmup)")
		return
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	idx := min((len(warm)*99+99)/100, len(warm))
	p99 := time.Duration(warm[idx-1])
	p50 := time.Duration(warm[len(warm)/2])
	log.Printf("end-to-end /submit latency (warm, n=%d): p50=%v p99=%v (ceiling %v)", len(warm), p50, p99, s.submitP99)
	if p99 >= s.submitP99 {
		s.failf("submit latency: steady-state warm p99 %v ≥ ceiling %v", p99, s.submitP99)
	}
}

// checkAudit asserts zero lost audit events: the backend's cumulative
// deploy/undeploy event counters equal the client-side success tallies.
func (s *soak) checkAudit() {
	var m struct {
		Events map[string]uint64 `json:"events"`
	}
	if err := s.getJSON(s.backend+"/metrics", &m); err != nil {
		s.failf("reading backend metrics: %v", err)
		return
	}
	deploys, undeploys := s.deploys.Load(), s.undeploys.Load()
	if got := m.Events["deploy"]; got != uint64(deploys) {
		s.failf("audit: backend logged %d deploy events, clients completed %d", got, deploys)
	}
	if got := m.Events["undeploy"]; got != uint64(undeploys) {
		s.failf("audit: backend logged %d undeploy events, clients completed %d", got, undeploys)
	}
	log.Printf("audit: %d deploy / %d undeploy events, parity held", m.Events["deploy"], m.Events["undeploy"])
}

// checkSeriesLifecycle asserts that per-app series go with their apps:
// every cycle ended in an undeploy, so the backend's exposition must carry
// no sample labeled app="…" however many instance names churned through.
// (The gateway's per-tenant series are bounded by the configured tenants.)
func (s *soak) checkSeriesLifecycle() {
	expo, err := s.exposition(s.backend)
	if err != nil {
		s.failf("series lifecycle: %v", err)
		return
	}
	for _, line := range strings.Split(string(expo), "\n") {
		if !strings.HasPrefix(line, "#") && strings.Contains(line, `app="`) {
			s.failf("series lifecycle: %q outlived its app", line)
			return
		}
	}
	log.Printf("series lifecycle: no per-app sample after the last undeploy")
}

// checkBackpressure pauses the deploy workers and floods the batch class
// past capacity: every admission beyond capacity (plus up to one in-hand
// ticket per already-parked worker) must shed with 429 + Retry-After, and
// the queue_saturated alert must fire while the queue is full.
func (s *soak) checkBackpressure() {
	async := s.Controller.Async()
	async.Pause()
	flood := s.qdepth + s.qworkers + 50
	var shed429, withRetryAfter, accepted int
	for i := 0; i < flood; i++ {
		sub, r, err := s.submit(s.names[i%s.tenants], map[string]string{"design": designMix[0], "priority": "batch"})
		if err != nil {
			s.failf("backpressure: submit %d: %v", i, err)
			async.Resume()
			return
		}
		if sub != nil {
			accepted++
			continue
		}
		shed429++
		if retryAfter(r) > 0 {
			withRetryAfter++
		}
	}
	minShed := flood - s.qdepth - s.qworkers
	maxShed := flood - s.qdepth
	if shed429 < minShed || shed429 > maxShed {
		s.failf("backpressure: %d sheds for a %d flood over capacity %d (+%d workers); want %d..%d — the queue is not bounded",
			shed429, flood, s.qdepth, s.qworkers, minShed, maxShed)
	}
	if withRetryAfter != shed429 {
		s.failf("backpressure: %d of %d sheds carried Retry-After", withRetryAfter, shed429)
	}

	firing := false
	for i := 0; i < 10 && !firing; i++ {
		on, err := s.firing(s.backend + "/alerts")
		if err != nil {
			s.failf("backpressure: reading alerts: %v", err)
			break
		}
		if firing = on["queue_saturated"]; !firing {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !firing {
		s.failf("backpressure: queue_saturated did not fire with the batch queue at capacity")
	}
	log.Printf("backpressure: flood=%d accepted=%d shed=%d (all with Retry-After=%v), queue_saturated firing=%v",
		flood, accepted, shed429, withRetryAfter == shed429, firing)

	async.Resume()
	// Drain the flood so the stack closes with an idle pipeline.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := async.Stats()
		if st.Depth[sched.PriorityLatency] == 0 && st.Depth[sched.PriorityBatch] == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.failf("backpressure: queue did not drain after Resume")
}
