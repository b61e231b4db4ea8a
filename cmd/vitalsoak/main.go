// Command vitalsoak is the admission-tier soak harness (`make soaksmoke`
// runs a short -race flavor in CI): it boots a complete in-process
// backend (vitald's stack) and an admission gateway in front of it, then
// drives sustained deploy → execute → undeploy churn from hundreds of
// simulated tenants over a zipf-skewed Table 2 design mix, and asserts
// the admission tier's contract:
//
//  1. Compile dedup: the backend's compile-cache miss count stays ≤ the
//     number of distinct designs — tenants share compiles, and at least
//     one submission coalesced onto another tenant's in-flight compile.
//  2. Admission latency: the p99 of steady-state (warm-path) /submit
//     round trips stays under -p99.
//  3. Backpressure: with the deploy workers paused, flooding the batch
//     queue past capacity sheds with 429 + Retry-After (never unbounded
//     growth) and drives the queue_saturated alert to firing.
//  4. Audit integrity: the client-side tally of successful deploys and
//     undeploys equals the backend audit log's event counters — zero
//     lost audit events under churn.
//  5. Series lifecycle: once every tenant has undeployed, the backend's
//     exposition carries no per-app sample.
//
// It exits non-zero on the first violated assertion.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vital/internal/core"
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

type config struct {
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
}

// soak aggregates everything the assertions need.
type soak struct {
	cfg     config
	backend string // backend base URL
	front   string // gateway base URL
	stack   *core.Stack
	client  *http.Client

	mu        sync.Mutex
	warmNanos []int64 // client-observed /submit latency, warm path only
	coldNanos []int64
	coalesced int
	deploys   int // succeeded tickets (client side)
	undeploys int // 200 undeploys (client side)
	executes  int
	failures  []string // assertion violations
}

func (s *soak) failf(format string, v ...interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures = append(s.failures, fmt.Sprintf(format, v...))
}

func main() {
	log.SetPrefix("vitalsoak: ")
	log.SetFlags(0)
	var cfg config
	flag.IntVar(&cfg.tenants, "tenants", 200, "simulated tenants")
	flag.IntVar(&cfg.designs, "designs", 10, "distinct designs in the mix (≤ 10)")
	flag.IntVar(&cfg.ops, "ops", 300, "deploy/execute/undeploy cycles to complete")
	flag.IntVar(&cfg.concurrency, "concurrency", 24, "concurrent tenant clients")
	flag.Float64Var(&cfg.rate, "rate", 500, "per-tenant admission rate (submissions/s)")
	flag.IntVar(&cfg.burst, "burst", 1000, "per-tenant admission burst")
	flag.IntVar(&cfg.qdepth, "qdepth", 64, "async queue capacity per priority class")
	flag.IntVar(&cfg.qworkers, "qworkers", 4, "async deploy workers")
	flag.DurationVar(&cfg.p99, "p99", 10*time.Millisecond, "p99 ceiling on the backend's async admission latency (request arrival to ticket issued)")
	flag.DurationVar(&cfg.submitP99, "submit-p99", 250*time.Millisecond, "p99 ceiling on steady-state end-to-end /submit round trips (client → gateway → backend and back)")
	flag.IntVar(&cfg.warmup, "warmup", -1, "cycles before latency recording starts (-1 = ops/3); the cold design compiles land here")
	flag.Uint64Var(&cfg.tokens, "execute-tokens", 2, "tokens per execution")
	flag.Int64Var(&cfg.seed, "seed", 1, "churn RNG seed")
	flag.BoolVar(&cfg.probe, "probe", true, "run the paused-pipeline backpressure probe")
	flag.BoolVar(&cfg.verbose, "v", false, "log every request outcome")
	flag.Parse()
	if cfg.designs < 1 || cfg.designs > len(designMix) {
		log.Fatalf("-designs must be 1..%d", len(designMix))
	}
	if cfg.tenants < cfg.concurrency {
		cfg.concurrency = cfg.tenants
	}
	if cfg.warmup < 0 {
		cfg.warmup = cfg.ops / 3
	}

	// The tenant-side client timeout mirrors the gateway's backend client:
	// generous, because a submission coalesced onto a cold compile legally
	// holds its connection for the whole synthesis.
	s := &soak{cfg: cfg, client: &http.Client{Timeout: 10 * time.Minute}}
	s.boot()
	start := time.Now()
	s.churn()
	churnWall := time.Since(start)

	// Audit parity must be read before the probe: probe tickets churn the
	// event counters without client-side bookkeeping.
	s.checkDedup()
	s.checkLatency()
	s.checkAudit()
	s.checkSeriesLifecycle()
	if cfg.probe {
		s.checkBackpressure()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	log.Printf("churn: %d cycles in %v (%d tenants, %d designs, %d clients): %d deploys, %d executes, %d undeploys, %d coalesced, %d warm / %d cold submissions",
		cfg.ops, churnWall.Round(time.Millisecond), cfg.tenants, cfg.designs, cfg.concurrency,
		s.deploys, s.executes, s.undeploys, s.coalesced, len(s.warmNanos), len(s.coldNanos))
	if len(s.failures) > 0 {
		for _, f := range s.failures {
			log.Printf("FAIL: %s", f)
		}
		os.Exit(1)
	}
	log.Printf("PASS: all admission-tier assertions held")
}

// boot assembles the in-process backend and gateway on ephemeral ports.
func (s *soak) boot() {
	// Zero For-duration so queue_saturated fires on the first evaluation
	// during the backpressure probe.
	th := sched.DefaultAlertThresholds()
	th.QueueSaturationFor = 0
	s.stack = core.NewStackWithOptions(nil, sched.Options{
		Alerts:       &th,
		QueueDepth:   s.cfg.qdepth,
		QueueWorkers: s.cfg.qworkers,
	})

	s.backend = s.serve(core.NewStackHandler(s.stack))
	creds := map[string]string{}
	for i := 0; i < s.cfg.tenants; i++ {
		creds[token(i)] = tenant(i)
	}
	gw, err := gateway.New(gateway.Config{
		Backend: s.backend,
		Tokens:  creds,
		Rate:    s.cfg.rate,
		Burst:   s.cfg.burst,
		// Cold compiles of the larger Table 2 designs can outlast the
		// gateway's default 30 s backend timeout on a loaded host (the CI
		// smoke runs under the race detector on shared runners); the soak
		// asserts latency itself, so the client timeout only guards hangs.
		Client: &http.Client{Timeout: 10 * time.Minute},
	})
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	s.front = s.serve(gw.Handler())
	log.Printf("backend %s, gateway %s", s.backend, s.front)
}

func (s *soak) serve(h http.Handler) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	//lint:ignore goroutineleak the servers are soak-lifetime by design; they die with the process.
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String()
}

func tenant(i int) string { return fmt.Sprintf("t%03d", i) }
func token(i int) string  { return "tok-" + tenant(i) }

// submitResponse mirrors the gateway's 202 body.
type submitResponse struct {
	App         string `json:"app"`
	ColdCompile bool   `json:"cold_compile"`
	Coalesced   bool   `json:"coalesced"`
	Ticket      struct {
		ID string `json:"id"`
	} `json:"ticket"`
}

// churn runs the deploy/execute/undeploy cycles across the worker pool.
// Every worker's first cycle submits designMix[0], so the opening wave is
// a deliberate cold-compile collision the coalescing assertion feeds on;
// after that the design choice is zipf-skewed.
func (s *soak) churn() {
	var remaining atomic.Int64
	remaining.Store(int64(s.cfg.ops))
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(s.cfg.seed + int64(w)))
			zipf := rand.NewZipf(r, 1.4, 1, uint64(s.cfg.designs-1))
			for iter := 0; ; iter++ {
				left := remaining.Add(-1)
				if left < 0 {
					return
				}
				// Cycle index in claim order; the first -warmup cycles are
				// unrecorded so the latency population is steady state (the
				// cold design compiles land in the warm-up window).
				idx := int64(s.cfg.ops) - 1 - left
				record := idx >= int64(s.cfg.warmup)
				// Workers own disjoint tenant slices, so one tenant never
				// races itself on an app name.
				t := w + (iter%(s.cfg.tenants/s.cfg.concurrency))*s.cfg.concurrency
				design := designMix[0]
				if iter > 0 {
					design = designMix[zipf.Uint64()]
				}
				priority := "latency"
				if r.Intn(5) == 0 {
					priority = "batch"
				}
				if err := s.cycle(t, design, priority, record); err != nil {
					s.failf("cycle tenant=%s design=%s: %v", tenant(t), design, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// cycle is one full tenant interaction: submit (retrying sheds and
// capacity losses), await the ticket, execute, undeploy.
func (s *soak) cycle(t int, design, priority string, record bool) error {
	for attempt := 0; attempt < 50; attempt++ {
		resp, lat, status, retryAfter, err := s.submit(t, design, priority)
		if err != nil {
			return err
		}
		if status == http.StatusTooManyRequests {
			// Shed by the rate limiter or the backend queue: honor the
			// hint (capped so a short soak stays short).
			d := retryAfter
			if d > time.Second {
				d = time.Second
			}
			time.Sleep(d)
			continue
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("submit: unexpected status %d", status)
		}
		s.mu.Lock()
		if resp.Coalesced {
			s.coalesced++
		}
		if record {
			if resp.ColdCompile {
				s.coldNanos = append(s.coldNanos, int64(lat))
			} else {
				s.warmNanos = append(s.warmNanos, int64(lat))
			}
		}
		s.mu.Unlock()

		ticket, err := s.await(resp.Ticket.ID)
		if err != nil {
			return err
		}
		if ticket.State == "failed" {
			if ticket.Retryable {
				// Capacity exhaustion under churn: back off and resubmit.
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return fmt.Errorf("ticket %s failed: %s", ticket.ID, ticket.Error)
		}
		s.mu.Lock()
		s.deploys++
		s.mu.Unlock()
		if err := s.post(t, "/execute", map[string]interface{}{
			"app": resp.App, "tokens": s.cfg.tokens,
		}); err != nil {
			return fmt.Errorf("execute %s: %w", resp.App, err)
		}
		s.mu.Lock()
		s.executes++
		s.mu.Unlock()
		if err := s.post(t, "/undeploy", map[string]string{"app": resp.App}); err != nil {
			return fmt.Errorf("undeploy %s: %w", resp.App, err)
		}
		s.mu.Lock()
		s.undeploys++
		s.mu.Unlock()
		return nil
	}
	return fmt.Errorf("50 attempts exhausted for %s", design)
}

// submit posts one admission request and reports the parsed 202 body (nil
// unless status is 202), the client-observed latency, the HTTP status and
// any Retry-After hint.
func (s *soak) submit(t int, design, priority string) (*submitResponse, time.Duration, int, time.Duration, error) {
	body, _ := json.Marshal(map[string]interface{}{"design": design, "priority": priority})
	req, err := http.NewRequest("POST", s.front+"/submit", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token(t))
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		sec, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, lat, resp.StatusCode, time.Duration(sec) * time.Second, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, lat, resp.StatusCode, 0, fmt.Errorf("submit %s: %s: %s", design, resp.Status, msg)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, 0, 0, 0, err
	}
	if s.cfg.verbose {
		log.Printf("202 %s cold=%v coalesced=%v ticket=%s in %v", sr.App, sr.ColdCompile, sr.Coalesced, sr.Ticket.ID, lat)
	}
	return &sr, lat, resp.StatusCode, 0, nil
}

// await polls a ticket through the gateway until it reaches a terminal
// state.
func (s *soak) await(id string) (*sched.Ticket, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.front + "/deployments/" + id)
		if err != nil {
			return nil, err
		}
		var t sched.Ticket
		err = json.NewDecoder(resp.Body).Decode(&t)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("ticket %s: %w", id, err)
		}
		if t.State == sched.TicketSucceeded || t.State == sched.TicketFailed {
			return &t, nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("ticket %s: not terminal after 60s", id)
}

// post sends an authenticated gateway POST and expects 200.
func (s *soak) post(t int, path string, body interface{}) error {
	raw, _ := json.Marshal(body)
	req, err := http.NewRequest("POST", s.front+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token(t))
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, msg)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
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
	if st.Misses > uint64(s.cfg.designs) {
		s.failf("compile dedup: %d cache misses for %d designs — tenants are not sharing compiles", st.Misses, s.cfg.designs)
	}
	s.mu.Lock()
	coalesced := s.coalesced
	s.mu.Unlock()
	if s.cfg.concurrency > 1 && coalesced == 0 {
		s.failf("compile dedup: no submission coalesced despite %d concurrent clients opening on the same design", s.cfg.concurrency)
	}
	log.Printf("dedup: %d hits / %d misses for %d designs, %d coalesced submissions", st.Hits, st.Misses, s.cfg.designs, coalesced)
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
		time.Duration(qs.AdmissionSeconds.P50*float64(time.Second)), admitP99, s.cfg.p99)
	if qs.AdmissionSeconds.Count == 0 {
		s.failf("admission latency: backend admission histogram is empty")
	} else if admitP99 >= s.cfg.p99 {
		s.failf("admission latency: p99 %v ≥ ceiling %v", admitP99, s.cfg.p99)
	}

	s.mu.Lock()
	warm := append([]int64(nil), s.warmNanos...)
	s.mu.Unlock()
	if len(warm) == 0 {
		s.failf("submit latency: no steady-state warm-path submissions recorded (raise -ops or lower -warmup)")
		return
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	idx := (len(warm)*99 + 99) / 100
	if idx > len(warm) {
		idx = len(warm)
	}
	p99 := time.Duration(warm[idx-1])
	p50 := time.Duration(warm[len(warm)/2])
	log.Printf("end-to-end /submit latency (warm, n=%d): p50=%v p99=%v (ceiling %v)", len(warm), p50, p99, s.cfg.submitP99)
	if p99 >= s.cfg.submitP99 {
		s.failf("submit latency: steady-state warm p99 %v ≥ ceiling %v", p99, s.cfg.submitP99)
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
	s.mu.Lock()
	deploys, undeploys := s.deploys, s.undeploys
	s.mu.Unlock()
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
	resp, err := s.client.Get(s.backend + "/metrics?format=prometheus")
	if err != nil {
		s.failf("series lifecycle: scraping the backend: %v", err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		s.failf("series lifecycle: reading the backend exposition: %v", err)
		return
	}
	for _, line := range strings.Split(string(raw), "\n") {
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
	async := s.stack.Controller.Async()
	async.Pause()
	flood := s.cfg.qdepth + s.cfg.qworkers + 50
	var shed429, withRetryAfter, accepted int
	for i := 0; i < flood; i++ {
		_, _, status, retryAfter, err := s.submit(i%s.cfg.tenants, designMix[0], "batch")
		switch {
		case err != nil:
			s.failf("backpressure: submit %d: %v", i, err)
			async.Resume()
			return
		case status == http.StatusTooManyRequests:
			shed429++
			if retryAfter > 0 {
				withRetryAfter++
			}
		case status == http.StatusAccepted:
			accepted++
		default:
			s.failf("backpressure: submit %d: unexpected status %d", i, status)
		}
	}
	minShed := flood - s.cfg.qdepth - s.cfg.qworkers
	maxShed := flood - s.cfg.qdepth
	if shed429 < minShed || shed429 > maxShed {
		s.failf("backpressure: %d sheds for a %d flood over capacity %d (+%d workers); want %d..%d — the queue is not bounded",
			shed429, flood, s.cfg.qdepth, s.cfg.qworkers, minShed, maxShed)
	}
	if withRetryAfter != shed429 {
		s.failf("backpressure: %d of %d sheds carried Retry-After", withRetryAfter, shed429)
	}

	firing := false
	for i := 0; i < 10 && !firing; i++ {
		var al struct {
			Alerts []struct {
				Rule  string `json:"rule"`
				State string `json:"state"`
			} `json:"alerts"`
		}
		if err := s.getJSON(s.backend+"/alerts", &al); err != nil {
			s.failf("backpressure: reading alerts: %v", err)
			break
		}
		for _, a := range al.Alerts {
			if a.Rule == "queue_saturated" && a.State == "firing" {
				firing = true
			}
		}
		if !firing {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !firing {
		s.failf("backpressure: queue_saturated did not fire with the batch queue at capacity")
	}
	log.Printf("backpressure: flood=%d accepted=%d shed=%d (all with Retry-After=%v), queue_saturated firing=%v",
		flood, accepted, shed429, withRetryAfter == shed429, firing)

	async.Resume()
	// Drain the flood so the process exits with an idle pipeline.
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

func (s *soak) getJSON(url string, out interface{}) error {
	resp, err := s.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
