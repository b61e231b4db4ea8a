package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/telemetry"
	"vital/internal/telemetry/tsdb"
	"vital/internal/workload"
)

// traceFile is the recorded tenant mix.
type traceFile struct {
	Name   string       `json:"name"`
	Events []traceEvent `json:"events"`
}

// traceEvent is one tenant arrival in the mix.
type traceEvent struct {
	AtMs          int64  `json:"at_ms"`
	Tenant        string `json:"tenant"`
	Design        string `json:"design"`
	Priority      string `json:"priority"`
	MemQuotaBytes uint64 `json:"mem_quota_bytes"`
	LifetimeMs    int64  `json:"lifetime_ms"`
}

// report is the JSON output shape. Curves are [t_unix_ms, value] pairs
// straight from TSDB range queries.
type report struct {
	Trace    string  `json:"trace"`
	Events   int     `json:"events"`
	Failures int     `json:"failures"`
	WallMs   int64   `json:"wall_ms"`
	Series   int     `json:"tsdb_series"`
	StepMs   int64   `json:"step_ms"`
	SpeedUp  float64 `json:"speed"`
	Curves   struct {
		Utilization        []tsdb.Point            `json:"utilization"`
		FragmentationIndex []tsdb.Point            `json:"fragmentation_index"`
		QueueDepth         map[string][]tsdb.Point `json:"queue_depth"`
		SLOBudgetRemaining map[string][]tsdb.Point `json:"slo_budget_remaining"`
	} `json:"curves"`
}

func parseReplay(args []string) (func() []string, error) {
	fs := newFlags("replay")
	rp := &replay{}
	fs.StringVar(&rp.path, "trace", "", "recorded tenant mix (JSON; required)")
	fs.Float64Var(&rp.speed, "speed", 1, "time compression: 2 replays the trace twice as fast")
	fs.DurationVar(&rp.scrape, "scrape", 250*time.Millisecond, "TSDB scrape cadence during the replay")
	fs.StringVar(&rp.format, "format", "json", "report format: json or csv")
	fs.StringVar(&rp.out, "out", "-", "report destination (- = stdout)")
	fs.BoolVar(&rp.check, "check", false, "run the CI assertions (monotonic counters, non-empty curves, valid expositions) and exit non-zero on violation")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case rp.path == "":
		return nil, invalid(fs, "-trace is required")
	case rp.speed <= 0:
		return nil, invalid(fs, "-speed must be positive")
	case rp.scrape <= 0:
		return nil, invalid(fs, "-scrape must be positive")
	case rp.format != "json" && rp.format != "csv":
		return nil, invalid(fs, "bad -format %q: want json or csv", rp.format)
	}
	return rp.run, nil
}

// load reads and checks the recorded tenant mix.
func (rp *replay) load() error {
	raw, err := os.ReadFile(rp.path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &rp.trace); err != nil {
		return fmt.Errorf("decoding %s: %w", rp.path, err)
	}
	if len(rp.trace.Events) == 0 {
		return fmt.Errorf("%s: trace holds no events", rp.path)
	}
	for i, ev := range rp.trace.Events {
		if ev.Tenant == "" || ev.Design == "" {
			return fmt.Errorf("%s: event %d needs tenant and design", rp.path, i)
		}
		if _, err := workload.ParseSpec(ev.Design); err != nil {
			return fmt.Errorf("%s: event %d: %w", rp.path, i, err)
		}
	}
	return nil
}

// replay plays a recorded tenant mix while an embedded TSDB scrapes both
// tiers' registries, then reports the run's curves.
type replay struct {
	*stack
	// The flags.
	path   string
	speed  float64
	scrape time.Duration
	format string
	out    string
	check  bool

	trace traceFile
	db    *tsdb.DB
}

func (rp *replay) run() []string {
	if err := rp.load(); err != nil {
		return []string{err.Error()}
	}
	creds := map[string]string{}
	for _, ev := range rp.trace.Events {
		creds[token(ev.Tenant)] = ev.Tenant
	}
	rp.db = tsdb.New(tsdb.Options{})
	gw := gateway.Config{Tokens: creds, Client: &http.Client{Timeout: 10 * time.Minute}}
	return run(sched.Options{}, gw, func(st *stack) {
		rp.stack = st
		rp.play()
	})
}

func (rp *replay) play() {
	// Scrape both tiers into the one replay store for the whole run; the
	// tier label keeps backend and gateway series apart at query time.
	start := time.Now()
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(2)
	go func() { defer scrapes.Done(); rp.db.Poll(rp.Controller.Reg, rp.scrape, stop, backendTier) }()
	go func() { defer scrapes.Done(); rp.db.Poll(rp.gw.Reg, rp.scrape, stop, gatewayTier) }()

	rp.playEvents()
	// One closing scrape so the final state (everything undeployed, queues
	// empty) is on the curves.
	close(stop)
	scrapes.Wait()
	now := time.Now()
	rp.db.Scrape(rp.Controller.Reg, now, backendTier)
	rp.db.Scrape(rp.gw.Reg, now, gatewayTier)
	wall := time.Since(start)

	rep := rp.report(start, wall)

	var buf bytes.Buffer
	if rp.format == "csv" {
		writeCSV(&buf, rep)
	} else {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	}
	if rp.out == "-" {
		_, _ = io.Copy(os.Stdout, &buf)
	} else if err := os.WriteFile(rp.out, buf.Bytes(), 0o644); err != nil {
		rp.failf("%v", err)
	}
	log.Printf("replayed %q: %d events in %v, %d TSDB series",
		rp.trace.Name, len(rp.trace.Events), wall.Round(time.Millisecond), rep.Series)
	if rp.check {
		rp.checkMonotonicCounters()
		rp.checkCurves(rep)
		// Each tier's exposition carries its embedded store's self-series.
		for _, base := range []string{rp.backend, rp.front} {
			rp.expect(base, "vital_tsdb_")
		}
		log.Printf("expositions: both tiers valid, vital_tsdb_* present")
	}
}

var backendTier, gatewayTier = telemetry.L("tier", "backend"), telemetry.L("tier", "gateway")

// playEvents plays every event at its scaled arrival time and waits for
// all lifetimes to finish.
func (rp *replay) playEvents() {
	start := time.Now()
	var wg sync.WaitGroup
	for i, ev := range rp.trace.Events {
		wg.Add(1)
		go func(i int, ev traceEvent) {
			defer wg.Done()
			at := time.Duration(float64(ev.AtMs)/rp.speed) * time.Millisecond
			time.Sleep(time.Until(start.Add(at)))
			if err := rp.playEvent(ev); err != nil {
				rp.failf("event %d (%s %s): %v", i, ev.Tenant, ev.Design, err)
			}
		}(i, ev)
	}
	wg.Wait()
}

// replayPacing waits out a repeat arrival racing its last undeploy, legal in a trace.
var replayPacing = pacing{shed: 50 * time.Millisecond, backoff: 50 * time.Millisecond, raced: true}

// playEvent is one tenant arrival: deploy, hold for the lifetime,
// undeploy. Sheds and capacity losses retry with backoff — the replay
// preserves arrival order, not failure behavior.
func (rp *replay) playEvent(ev traceEvent) error {
	app, err := rp.deploy(ev.Tenant, map[string]interface{}{
		"design": ev.Design, "priority": ev.Priority, "mem_quota_bytes": ev.MemQuotaBytes,
	}, replayPacing, nil)
	if err != nil {
		return err
	}
	time.Sleep(time.Duration(float64(ev.LifetimeMs)/rp.speed) * time.Millisecond)
	if err := rp.post(ev.Tenant, rp.front+"/undeploy", map[string]string{"app": app}); err != nil {
		return fmt.Errorf("undeploy %s: %w", app, err)
	}
	return nil
}

// query runs one range query against the replay store, returning the
// results (empty on error — the report prints what it has).
func (rp *replay) query(q tsdb.Query) []tsdb.Result {
	resp, err := rp.db.Query(q)
	if err != nil {
		rp.failf("query %s: %v", q.Name, err)
		return nil
	}
	return resp.Results
}

// report assembles the output curves from TSDB range queries over the
// replay window.
func (rp *replay) report(start time.Time, wall time.Duration) *report {
	rep := &report{
		Trace:    rp.trace.Name,
		Events:   len(rp.trace.Events),
		Failures: len(rp.all()),
		WallMs:   wall.Milliseconds(),
		Series:   rp.db.SeriesCount(),
		StepMs:   rp.scrape.Milliseconds(),
		SpeedUp:  rp.speed,
	}

	// Utilization = used/total, joined pointwise on the aligned grid.
	q := tsdb.Query{Name: "vital_used_blocks", Matchers: map[string]string{"tier": "backend"},
		Func: tsdb.FuncLast, Start: start, End: start.Add(wall + rp.scrape), Step: rp.scrape, Window: 2 * rp.scrape}
	used := flatten(rp.query(q))
	q.Name = "vital_total_blocks"
	totalAt := map[int64]float64{}
	for _, p := range flatten(rp.query(q)) {
		totalAt[p.T] = p.V
	}
	for _, p := range used {
		if tot := totalAt[p.T]; tot > 0 {
			rep.Curves.Utilization = append(rep.Curves.Utilization, tsdb.Point{T: p.T, V: p.V / tot})
		}
	}

	q.Name = "vital_fragmentation_index"
	rep.Curves.FragmentationIndex = flatten(rp.query(q))

	q.Name = "vital_queue_depth"
	rep.Curves.QueueDepth = map[string][]tsdb.Point{}
	for _, res := range rp.query(q) {
		rep.Curves.QueueDepth[res.Labels["class"]] = res.Points
	}

	q.Name, q.Matchers = "vital_tenant_slo_budget_remaining", map[string]string{"tier": "gateway"}
	rep.Curves.SLOBudgetRemaining = map[string][]tsdb.Point{}
	for _, res := range rp.query(q) {
		rep.Curves.SLOBudgetRemaining[res.Labels["tenant"]] = res.Points
	}
	return rep
}

// flatten merges a query's results into one point list (the utilization
// and fragmentation sources are single-series).
func flatten(results []tsdb.Result) []tsdb.Point {
	var pts []tsdb.Point
	for _, r := range results {
		pts = append(pts, r.Points...)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts
}

// checkMonotonicCounters raw-queries every stored *_total series and
// asserts its samples never decrease — no process restarted mid-replay,
// so any dip is a scrape-or-encode bug.
func (rp *replay) checkMonotonicCounters() {
	checked := 0
	for _, name := range rp.db.Names() {
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		resp, err := rp.db.Query(tsdb.Query{
			Name: name, Func: tsdb.FuncRaw,
			Start: time.Unix(0, 0), End: time.Now().Add(time.Hour),
		})
		if err != nil {
			rp.failf("monotonicity query %s: %v", name, err)
			continue
		}
		for _, res := range resp.Results {
			for i := 1; i < len(res.Points); i++ {
				if res.Points[i].V < res.Points[i-1].V {
					rp.failf("counter %s%v decreased: %g → %g at sample %d",
						name, res.Labels, res.Points[i-1].V, res.Points[i].V, i)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		rp.failf("monotonicity: no *_total series stored — did the scrape loop run?")
	} else {
		log.Printf("monotonicity: %d counter series all non-decreasing", checked)
	}
}

// checkCurves asserts the report's headline curves are non-empty and
// utilization actually moved (the trace deploys something).
func (rp *replay) checkCurves(rep *report) {
	if len(rep.Curves.Utilization) == 0 {
		rp.failf("curves: utilization is empty")
		return
	}
	peak := 0.0
	for _, p := range rep.Curves.Utilization {
		if p.V > peak {
			peak = p.V
		}
	}
	if peak <= 0 {
		rp.failf("curves: utilization never rose above zero across %d points", len(rep.Curves.Utilization))
	}
	log.Printf("curves: utilization %d points (peak %.3f), fragmentation %d, queue classes %d, tenants %d",
		len(rep.Curves.Utilization), peak, len(rep.Curves.FragmentationIndex),
		len(rep.Curves.QueueDepth), len(rep.Curves.SLOBudgetRemaining))
}

// writeCSV renders every curve as series,label,t_unix_ms,value rows.
func writeCSV(w io.Writer, rep *report) {
	fmt.Fprintln(w, "series,key,t_unix_ms,value")
	row := func(series, key string, pts []tsdb.Point) {
		for _, p := range pts {
			fmt.Fprintf(w, "%s,%s,%d,%g\n", series, key, p.T, p.V)
		}
	}
	row("utilization", "", rep.Curves.Utilization)
	row("fragmentation_index", "", rep.Curves.FragmentationIndex)
	for _, class := range sortedKeys(rep.Curves.QueueDepth) {
		row("queue_depth", class, rep.Curves.QueueDepth[class])
	}
	for _, tenant := range sortedKeys(rep.Curves.SLOBudgetRemaining) {
		row("slo_budget_remaining", tenant, rep.Curves.SLOBudgetRemaining[tenant])
	}
}

// sortedKeys orders a curve map's keys for deterministic CSV output.
func sortedKeys(m map[string][]tsdb.Point) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
