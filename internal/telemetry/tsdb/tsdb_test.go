package tsdb

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"vital/internal/telemetry"
)

// ts builds the test clock: a fixed epoch plus a second offset, so every
// fixture below is hand-computable in whole seconds.
var epoch = time.Unix(1_700_000_000, 0)

func ts(sec float64) time.Time { return epoch.Add(time.Duration(sec * float64(time.Second))) }

func msAt(sec float64) int64 { return ts(sec).UnixMilli() }

func TestChunkRoundTrip(t *testing.T) {
	c := &chunk{}
	type sample struct {
		t int64
		v float64
	}
	in := []sample{
		{1000, 0},
		{2000, 1.5},
		{2000, 1.5},      // repeated timestamp
		{1500, -3.25},    // regressing timestamp (signed delta)
		{90000, 1e300},   // large jump, extreme value
		{90001, -1e-300}, // tiny value
		{90002, math.Inf(1)},
		{90003, 42},
	}
	for _, s := range in {
		c.append(s.t, s.v)
	}
	var out []sample
	c.iter(func(tt int64, v float64) bool {
		out = append(out, sample{tt, v})
		return true
	})
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("sample %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	if c.t0 != 1000 || c.maxT != 90003 {
		t.Fatalf("bounds t0=%d maxT=%d", c.t0, c.maxT)
	}
}

func TestChunkConstantValueIsCheap(t *testing.T) {
	c := &chunk{}
	c.append(1000, 5)
	before := len(c.buf)
	for i := 1; i < 100; i++ {
		c.append(1000+int64(i)*1000, 5)
	}
	// A constant counter at a 1 s cadence costs 3 bytes per sample: two
	// for the zigzagged 1000 ms delta, one for the zero XOR.
	if got := len(c.buf) - before; got != 3*99 {
		t.Fatalf("99 constant samples cost %d bytes, want %d", got, 3*99)
	}
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag round trip %d -> %d", d, got)
		}
	}
}

func TestAppendAndRawQuery(t *testing.T) {
	db := New(Options{})
	lbl := []telemetry.Label{telemetry.L("tenant", "a")}
	for i := 0; i < 5; i++ {
		db.Append("vital_used_blocks", lbl, ts(float64(i)), float64(i*10))
	}
	resp, err := db.Query(Query{Name: "vital_used_blocks", Func: FuncRaw, Start: ts(0), End: ts(10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Points) != 5 {
		t.Fatalf("raw query: %+v", resp.Results)
	}
	for i, p := range resp.Results[0].Points {
		if p.T != msAt(float64(i)) || p.V != float64(i*10) {
			t.Fatalf("point %d: %+v", i, p)
		}
	}
	if resp.Results[0].Labels["tenant"] != "a" {
		t.Fatalf("labels: %+v", resp.Results[0].Labels)
	}
}

func TestAppendDropsOutOfOrder(t *testing.T) {
	db := New(Options{})
	db.Append("x", nil, ts(10), 1)
	db.Append("x", nil, ts(5), 2) // regressed clock: dropped
	db.Append("x", nil, ts(11), 3)
	resp, _ := db.Query(Query{Name: "x", Func: FuncRaw, Start: ts(0), End: ts(20)})
	if n := len(resp.Results[0].Points); n != 2 {
		t.Fatalf("got %d points, want 2 (out-of-order dropped)", n)
	}
}

func TestRetentionEvictsChunks(t *testing.T) {
	db := New(Options{Retention: 10 * time.Second, ChunkSamples: 2, MaxChunks: 100})
	for i := 0; i < 10; i++ {
		db.Append("x", nil, ts(float64(i*5)), float64(i))
	}
	// 45 s of samples with 10 s retention: only chunks whose newest sample
	// is within 10 s of t=45 survive (plus the active chunk).
	resp, _ := db.Query(Query{Name: "x", Func: FuncRaw, Start: ts(0), End: ts(100)})
	pts := resp.Results[0].Points
	if pts[0].T < msAt(30) {
		t.Fatalf("oldest surviving point %d predates retention horizon", pts[0].T)
	}
	db.mu.Lock()
	ev := db.evictions
	db.mu.Unlock()
	if ev == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestMaxChunksCap(t *testing.T) {
	db := New(Options{Retention: time.Hour, ChunkSamples: 1, MaxChunks: 3})
	for i := 0; i < 10; i++ {
		db.Append("x", nil, ts(float64(i)), float64(i))
	}
	db.mu.Lock()
	n := db.slots[db.series[string(appendKey(nil, "x", nil))]].chunkCount()
	db.mu.Unlock()
	if n > 3 {
		t.Fatalf("series holds %d chunks, cap is 3", n)
	}
}

// TestRateHandComputed pins the acceptance fixture: a counter scraped
// every second, queried as rate over aligned 5 s steps.
func TestRateHandComputed(t *testing.T) {
	db := New(Options{})
	// t=1..10 s, value 5·(t−1): a steady 5/s counter.
	for i := 1; i <= 10; i++ {
		db.Append("vital_gateway_requests_total", nil, ts(float64(i)), float64(5*(i-1)))
	}
	resp, err := db.Query(Query{
		Name: "vital_gateway_requests_total", Func: FuncRate,
		Start: ts(0), End: ts(10), Step: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results: %+v", resp.Results)
	}
	pts := resp.Results[0].Points
	// Step t=5 s: window (0,5] holds t=1..5 (values 0..20): increase 20
	// over a 4 s observed span → 5/s. Step t=10 s: window (5,10] holds
	// t=6..10 (values 25..45): again 5/s.
	want := []Point{{msAt(5), 5}, {msAt(10), 5}}
	if len(pts) != len(want) {
		t.Fatalf("points %+v, want %+v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d: %+v want %+v", i, pts[i], want[i])
		}
	}
}

func TestRateCounterReset(t *testing.T) {
	db := New(Options{})
	vals := []float64{0, 10, 20, 5, 15} // restart between t=3 and t=4
	for i, v := range vals {
		db.Append("c", nil, ts(float64(i+1)), v)
	}
	resp, err := db.Query(Query{Name: "c", Func: FuncIncrease, Start: ts(5), End: ts(5), Step: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Window (0,5]: deltas +10, +10, reset→+5, +10 = 35.
	if got := resp.Results[0].Points[0].V; got != 35 {
		t.Fatalf("increase with reset = %v, want 35", got)
	}
	resp, _ = db.Query(Query{Name: "c", Func: FuncRate, Start: ts(5), End: ts(5), Step: 5 * time.Second})
	// 35 over the 4 s observed span.
	if got := resp.Results[0].Points[0].V; got != 8.75 {
		t.Fatalf("rate with reset = %v, want 8.75", got)
	}
}

func TestAvgMaxLastHandComputed(t *testing.T) {
	db := New(Options{})
	vals := []float64{2, 4, 6, 100, 8}
	for i, v := range vals {
		db.Append("g", nil, ts(float64(i+1)), v)
	}
	q := Query{Name: "g", Start: ts(5), End: ts(5), Step: 5 * time.Second}
	q.Func = FuncAvg
	resp, _ := db.Query(q)
	if got := resp.Results[0].Points[0].V; got != 24 { // (2+4+6+100+8)/5
		t.Fatalf("avg = %v, want 24", got)
	}
	q.Func = FuncMax
	resp, _ = db.Query(q)
	if got := resp.Results[0].Points[0].V; got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	q.Func = FuncLast
	resp, _ = db.Query(q)
	if got := resp.Results[0].Points[0].V; got != 8 {
		t.Fatalf("last = %v, want 8", got)
	}
}

func TestAlignedSteps(t *testing.T) {
	db := New(Options{})
	for i := 0; i <= 12; i++ {
		db.Append("g", nil, ts(float64(i)), float64(i))
	}
	// start=3 s with step=2 s: evaluation grid is 4,6,8,10 s regardless of
	// the ragged start.
	resp, err := db.Query(Query{Name: "g", Func: FuncLast, Start: ts(3), End: ts(10), Step: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pts := resp.Results[0].Points
	wantT := []int64{msAt(4), msAt(6), msAt(8), msAt(10)}
	if len(pts) != len(wantT) {
		t.Fatalf("points %+v", pts)
	}
	for i, p := range pts {
		if p.T != wantT[i] || p.V != float64(4+2*i) {
			t.Fatalf("point %d: %+v", i, p)
		}
	}
}

func TestGapsAreOmitted(t *testing.T) {
	db := New(Options{})
	db.Append("g", nil, ts(1), 1)
	db.Append("g", nil, ts(20), 2)
	resp, _ := db.Query(Query{Name: "g", Func: FuncLast, Start: ts(0), End: ts(20), Step: 5 * time.Second})
	pts := resp.Results[0].Points
	// Windows (0,5] and (15,20] have samples; (5,10] and (10,15] are gaps.
	if len(pts) != 2 || pts[0].T != msAt(5) || pts[1].T != msAt(20) {
		t.Fatalf("points %+v", pts)
	}
}

// TestQuantileHandComputed pins quantile-over-histogram against a
// hand-built bucket ladder.
func TestQuantileHandComputed(t *testing.T) {
	db := New(Options{})
	le := func(v string) []telemetry.Label { return []telemetry.Label{telemetry.L("le", v)} }
	// Baseline at t=1 s, all zero; by t=9 s: 10 obs ≤0.1, 30 ≤0.5, 40 total.
	for _, b := range []struct {
		le string
		v  float64
	}{{"0.1", 0}, {"0.5", 0}, {"+Inf", 0}} {
		db.Append("vital_http_request_seconds_bucket", le(b.le), ts(1), b.v)
	}
	for _, b := range []struct {
		le string
		v  float64
	}{{"0.1", 10}, {"0.5", 30}, {"+Inf", 40}} {
		db.Append("vital_http_request_seconds_bucket", le(b.le), ts(9), b.v)
	}
	q := Query{
		Name: "vital_http_request_seconds", Func: FuncQuantile, Q: 0.5,
		Start: ts(10), End: ts(10), Step: 10 * time.Second,
	}
	resp, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Points) != 1 {
		t.Fatalf("results %+v", resp.Results)
	}
	// Window increase: 10 in (−∞,0.1], 20 in (0.1,0.5], 10 in +Inf.
	// rank = 0.5·40 = 20 → cum hits 30 at le=0.5: interpolate
	// 0.1 + 0.4·(20−10)/20 = 0.3.
	if got := resp.Results[0].Points[0].V; math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.3", got)
	}
	// p99: rank 39.6 lands in +Inf → clamp to the highest finite bound.
	q.Q = 0.99
	resp, _ = db.Query(q)
	if got := resp.Results[0].Points[0].V; got != 0.5 {
		t.Fatalf("p99 = %v, want 0.5 (highest finite bound)", got)
	}
}

// TestQuantileEdgeCases pins the degenerate histogram shapes: no
// observations, a single-bucket ladder, all mass beyond every finite
// bound, and a rank landing exactly on a bucket boundary.
func TestQuantileEdgeCases(t *testing.T) {
	le := func(v string) []telemetry.Label { return []telemetry.Label{telemetry.L("le", v)} }
	appendLadder := func(db *DB, at time.Time, vals map[string]float64) {
		for l, v := range vals {
			db.Append("vital_edge_seconds_bucket", le(l), at, v)
		}
	}
	q := Query{
		Name: "vital_edge_seconds", Func: FuncQuantile, Q: 0.5,
		Start: ts(10), End: ts(10), Step: 10 * time.Second,
	}

	t.Run("empty", func(t *testing.T) {
		// Buckets scraped twice but flat at zero: no observations landed
		// in the window, so the step is a gap, not a phantom 0.
		db := New(Options{})
		appendLadder(db, ts(1), map[string]float64{"0.1": 0, "+Inf": 0})
		appendLadder(db, ts(9), map[string]float64{"0.1": 0, "+Inf": 0})
		resp, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 0 {
			t.Fatalf("empty histogram produced results: %+v", resp.Results)
		}
	})

	t.Run("single-sample-window", func(t *testing.T) {
		// One scrape only: no increase is computable, so no point.
		db := New(Options{})
		appendLadder(db, ts(9), map[string]float64{"0.1": 5, "+Inf": 5})
		resp, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 0 {
			t.Fatalf("single-sample window produced results: %+v", resp.Results)
		}
	})

	t.Run("single-finite-bucket", func(t *testing.T) {
		// Ladder {0.2, +Inf}, all 10 obs ≤0.2: every quantile interpolates
		// inside (0, 0.2] — p50 = 0.2·(5/10) = 0.1.
		db := New(Options{})
		appendLadder(db, ts(1), map[string]float64{"0.2": 0, "+Inf": 0})
		appendLadder(db, ts(9), map[string]float64{"0.2": 10, "+Inf": 10})
		resp, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || len(resp.Results[0].Points) != 1 {
			t.Fatalf("results %+v", resp.Results)
		}
		if got := resp.Results[0].Points[0].V; math.Abs(got-0.1) > 1e-12 {
			t.Fatalf("p50 = %v, want 0.1", got)
		}
	})

	t.Run("all-mass-in-inf", func(t *testing.T) {
		// Every observation beyond the last finite bound: the estimate
		// clamps to that bound at any quantile.
		db := New(Options{})
		appendLadder(db, ts(1), map[string]float64{"0.1": 0, "0.5": 0, "+Inf": 0})
		appendLadder(db, ts(9), map[string]float64{"0.1": 0, "0.5": 0, "+Inf": 20})
		resp, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || len(resp.Results[0].Points) != 1 {
			t.Fatalf("results %+v", resp.Results)
		}
		if got := resp.Results[0].Points[0].V; got != 0.5 {
			t.Fatalf("p50 = %v, want clamp to 0.5", got)
		}
	})

	t.Run("exact-boundary", func(t *testing.T) {
		// rank = 0.5·20 = 10 = cum at le=0.1 exactly: interpolation reaches
		// the bucket's upper bound, no spill into the next bucket.
		db := New(Options{})
		appendLadder(db, ts(1), map[string]float64{"0.1": 0, "0.5": 0, "+Inf": 0})
		appendLadder(db, ts(9), map[string]float64{"0.1": 10, "0.5": 20, "+Inf": 20})
		resp, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Results[0].Points[0].V; math.Abs(got-0.1) > 1e-12 {
			t.Fatalf("p50 = %v, want exactly the 0.1 boundary", got)
		}
	})
}

// TestQuantileFromScrapedRegistry walks the full path the daemons use:
// observe a real histogram, scrape twice, and answer
// quantile(0.99, vital_http_request_seconds) from the stored buckets.
func TestQuantileFromScrapedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("vital_http_request_seconds", "test", []float64{0.01, 0.1, 1},
		telemetry.L("route", "deploy"))
	db := New(Options{})
	db.Scrape(reg, ts(1))
	for i := 0; i < 98; i++ {
		h.Observe(0.005) // 98 fast requests
	}
	h.Observe(0.05) // 2 slower ones
	h.Observe(0.5)
	db.Scrape(reg, ts(9))
	resp, err := db.Query(Query{
		Name: "vital_http_request_seconds", Func: FuncQuantile, Q: 0.99,
		Start: ts(10), End: ts(10), Step: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results %+v", resp.Results)
	}
	if resp.Results[0].Labels["route"] != "deploy" {
		t.Fatalf("labels %+v", resp.Results[0].Labels)
	}
	// Window: 100 observations; cum = 98 (≤0.01), 99 (≤0.1), 100 (≤1).
	// rank = 99 → exactly the ≤0.1 bucket's cumulative count: interpolate
	// 0.01 + (0.1−0.01)·(99−98)/1 = 0.1.
	if got := resp.Results[0].Points[0].V; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("p99 = %v, want 0.1", got)
	}
}

func TestScrapeExtraLabelsAndSelfMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("vital_requests_total", "test").Add(7)
	db := New(Options{})
	db.Register(reg)
	db.Scrape(reg, ts(1), telemetry.L("tier", "backend"))
	db.Scrape(reg, ts(2), telemetry.L("tier", "backend"))
	resp, _ := db.Query(Query{
		Name: "vital_requests_total", Matchers: map[string]string{"tier": "backend"},
		Func: FuncRaw, Start: ts(0), End: ts(10),
	})
	if len(resp.Results) != 1 || resp.Results[0].Labels["tier"] != "backend" {
		t.Fatalf("tier-labeled series missing: %+v", resp.Results)
	}
	// The DB samples its own vital_tsdb_* families.
	names := db.Names()
	wantSelf := map[string]bool{
		"vital_tsdb_samples_total": false, "vital_tsdb_evicted_chunks_total": false,
		"vital_tsdb_series": false, "vital_tsdb_chunk_bytes": false,
	}
	for _, n := range names {
		if _, ok := wantSelf[n]; ok {
			wantSelf[n] = true
		}
	}
	for n, seen := range wantSelf {
		if !seen {
			t.Fatalf("self-series %s not scraped (names: %v)", n, names)
		}
	}
	// Self-observation is monotone: samples_total at t=2 ≥ at t=1.
	resp, _ = db.Query(Query{Name: "vital_tsdb_samples_total", Matchers: map[string]string{"tier": "backend"},
		Func: FuncRaw, Start: ts(0), End: ts(10)})
	pts := resp.Results[0].Points
	if len(pts) != 2 || pts[1].V < pts[0].V {
		t.Fatalf("samples_total not monotone: %+v", pts)
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	in := Point{T: 1700000000123, V: 0.25}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1700000000123,0.25]" {
		t.Fatalf("marshal: %s", b)
	}
	var out Point
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v", out)
	}
	var resp Response
	blob := `{"series":"x","func":"rate","start_ms":0,"end_ms":10,"step_ms":5,` +
		`"results":[{"labels":{"tier":"backend"},"points":[[1,2],[3,4.5]]}]}`
	if err := json.Unmarshal([]byte(blob), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Points[1].V != 4.5 {
		t.Fatalf("response decode: %+v", resp)
	}
}

func TestParseSelector(t *testing.T) {
	name, m, err := ParseSelector(`vital_used_blocks{tenant="a",board="b0"}`)
	if err != nil || name != "vital_used_blocks" || m["tenant"] != "a" || m["board"] != "b0" {
		t.Fatalf("got %q %v %v", name, m, err)
	}
	name, m, err = ParseSelector("plain_name")
	if err != nil || name != "plain_name" || m != nil {
		t.Fatalf("got %q %v %v", name, m, err)
	}
	for _, bad := range []string{"", `{tenant="a"}`, `x{tenant=a}`, `x{tenant="a"`, `x{="v"}`} {
		if _, _, err := ParseSelector(bad); err == nil {
			t.Fatalf("selector %q should fail", bad)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	base := Query{Name: "x", Func: FuncRate, Start: ts(0), End: ts(10), Step: time.Second}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Func = "bogus"
	if bad.Validate() == nil {
		t.Fatal("bogus func accepted")
	}
	bad = base
	bad.Step = 0
	if bad.Validate() == nil {
		t.Fatal("zero step accepted")
	}
	bad = base
	bad.Func = FuncQuantile
	if bad.Validate() == nil {
		t.Fatal("quantile without q accepted")
	}
	bad = base
	bad.End, bad.Start = base.Start, base.End
	if bad.Validate() == nil {
		t.Fatal("end<start accepted")
	}
	raw := Query{Name: "x", Func: FuncRaw, Start: ts(0), End: ts(10)}
	if err := raw.Validate(); err != nil {
		t.Fatalf("raw without step should be fine: %v", err)
	}
}

func TestServeQuery(t *testing.T) {
	db := New(Options{})
	for i := 1; i <= 10; i++ {
		db.Append("vital_queue_depth", nil, ts(float64(i)), float64(i%3))
	}
	// Discovery listing.
	rec := httptest.NewRecorder()
	db.ServeQuery(rec, httptest.NewRequest("GET", "/query", nil))
	var names NamesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &names); err != nil || len(names.Names) != 1 {
		t.Fatalf("names: %s (%v)", rec.Body.String(), err)
	}
	// Range query over an explicit window.
	url := "/query?series=vital_queue_depth&func=max&start=" +
		ts(0).Format(time.RFC3339) + "&end=" + ts(10).Format(time.RFC3339) + "&step=5s"
	rec = httptest.NewRecorder()
	db.ServeQuery(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Points) != 2 {
		t.Fatalf("resp %+v", resp)
	}
	if resp.Results[0].Points[0].V != 2 { // max of 1,2,0,1,2
		t.Fatalf("max point %+v", resp.Results[0].Points[0])
	}
	// Bad input is a 400, not a panic.
	rec = httptest.NewRecorder()
	db.ServeQuery(rec, httptest.NewRequest("GET", "/query?series=x&func=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bogus func: code %d", rec.Code)
	}
}

func TestAddLabelAndMerge(t *testing.T) {
	a := &Response{Results: []Result{{Points: []Point{{1, 2}}}}}
	b := &Response{Results: []Result{{Labels: map[string]string{"x": "y"}, Points: []Point{{3, 4}}}}}
	AddLabel(a, "tier", "gateway")
	AddLabel(b, "tier", "backend")
	Merge(a, b)
	if len(a.Results) != 2 || a.Results[0].Labels["tier"] != "gateway" || a.Results[1].Labels["tier"] != "backend" {
		t.Fatalf("merged %+v", a.Results)
	}
}

func TestPollStops(t *testing.T) {
	db := New(Options{})
	reg := telemetry.NewRegistry()
	reg.Counter("vital_x_total", "test").Add(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		db.Poll(reg, time.Millisecond, stop)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for db.SeriesCount() == 0 {
		select {
		case <-deadline:
			t.Fatal("poll never scraped")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("poll did not stop")
	}
}

// TestScrapeExpiresStaleSeries: retention on append never reaches a series
// that is no longer appended to — the series of an app that was undeployed
// — so Scrape drops any series whose newest sample has aged out, and the
// store returns to its baseline one retention horizon after the entity's
// last sample.
func TestScrapeExpiresStaleSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("vital_requests_total", "test").Inc()
	apps := map[string]bool{}
	used := reg.GaugeDesc("vital_test_used", "Blocks held, per app.", "app")
	reg.Collect(func(emit telemetry.Emit) {
		for app := range apps {
			emit(used, 1, app)
		}
	})
	db := New(Options{Retention: 10 * time.Second})
	db.Scrape(reg, ts(0))
	baseline := db.SeriesCount()

	apps["a"], apps["b"] = true, true
	db.Scrape(reg, ts(1))
	if got := db.SeriesCount(); got != baseline+2 {
		t.Fatalf("series = %d with two apps live, want %d", got, baseline+2)
	}
	delete(apps, "a")
	delete(apps, "b")
	db.Scrape(reg, ts(11)) // the apps' last sample (t=1) is exactly at the horizon: kept
	if got := db.SeriesCount(); got != baseline+2 {
		t.Fatalf("series = %d at the horizon, want %d", got, baseline+2)
	}
	db.mu.Lock()
	evBefore := db.evictions
	db.mu.Unlock()
	db.Scrape(reg, ts(12))
	if got := db.SeriesCount(); got != baseline {
		t.Fatalf("series = %d one horizon after the apps' last sample, want the baseline %d", got, baseline)
	}
	db.mu.Lock()
	ev := db.evictions - evBefore
	db.mu.Unlock()
	if ev != 2 {
		t.Fatalf("expiry counted %d evicted chunks, want the two series' one chunk each", ev)
	}
	resp, _ := db.Query(Query{Name: "vital_test_used", Func: FuncRaw, Start: ts(0), End: ts(20)})
	if len(resp.Results) != 0 {
		t.Fatalf("expired series still answer queries: %+v", resp.Results)
	}
	// The live series were untouched.
	resp, _ = db.Query(Query{Name: "vital_requests_total", Func: FuncRaw, Start: ts(0), End: ts(20)})
	if len(resp.Results) != 1 || len(resp.Results[0].Points) != 4 {
		t.Fatalf("live series damaged by expiry: %+v", resp.Results)
	}
}

// The vital_tsdb_chunk_bytes self-metric is a running total kept by
// append, the ring-cap and retention drops, and series expiry; it must
// equal a brute-force sum over every resident chunk after each scrape of
// a seeded churn: a fast phase that overruns the ring cap, then a slow one
// whose gaps cross the retention horizon, with apps coming and going so
// their series expire.
func TestChunkBytesRunningTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := telemetry.NewRegistry()
	apps := []string{"a", "b", "c", "d", "e", "f"}
	live := make([]bool, len(apps))
	used := reg.GaugeDesc("vital_test_used", "Blocks held, per app.", "app")
	reg.Collect(func(emit telemetry.Emit) {
		for i, app := range apps {
			if live[i] {
				emit(used, rng.NormFloat64(), app)
			}
		}
	})
	db := New(Options{Retention: 20 * time.Second, ChunkSamples: 3, MaxChunks: 4})
	db.Register(reg)
	check := func(sec float64) {
		t.Helper()
		db.mu.Lock()
		defer db.mu.Unlock()
		want := 0
		for _, i := range db.series {
			s := &db.slots[i]
			want += len(s.head.buf)
			for _, c := range s.sealed {
				want += len(c.buf)
			}
		}
		if db.bytes != want {
			t.Fatalf("t=%gs: running chunk bytes %d, brute-force sum %d", sec, db.bytes, want)
		}
	}
	sec, peak, expired := 0.0, 0, false
	for _, phase := range []struct {
		steps int
		step  float64
	}{{150, 0.1}, {40, 8}} {
		for i := 0; i < phase.steps; i++ {
			sec += phase.step
			if rng.Intn(3) == 0 {
				j := rng.Intn(len(apps))
				live[j] = !live[j]
			}
			db.Append("vital_test_direct", []telemetry.Label{telemetry.L("k", strconv.Itoa(rng.Intn(4)))}, ts(sec), rng.Float64())
			db.Scrape(reg, ts(sec))
			check(sec)
			n := db.SeriesCount()
			expired = expired || n < peak
			peak = max(peak, n)
		}
	}
	db.mu.Lock()
	evictions := db.evictions
	db.mu.Unlock()
	if evictions == 0 || !expired {
		t.Fatalf("churn evicted %d chunks, expired a series: %v — the fixture no longer reaches every path", evictions, expired)
	}
	for _, smp := range reg.Samples() {
		if smp.Name == "vital_tsdb_chunk_bytes" {
			db.mu.Lock()
			want := db.bytes
			db.mu.Unlock()
			if smp.Value != float64(want) {
				t.Fatalf("vital_tsdb_chunk_bytes = %v, running total %d", smp.Value, want)
			}
			return
		}
	}
	t.Fatalf("vital_tsdb_chunk_bytes not emitted")
}
