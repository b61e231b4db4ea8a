package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"vital/internal/telemetry"
)

// Func names the range functions the engine evaluates per aligned step.
type Func string

// Range functions. All but FuncRaw evaluate over the lookback window
// (t−window, t] at each aligned timestamp t:
//
//   - last: the newest sample in the window (gauge reads);
//   - avg, max: arithmetic mean / maximum of the window's samples;
//   - rate: per-second increase of a counter across the window, reset-
//     adjusted — (adjusted last − first) / (lastT − firstT); needs ≥ 2
//     samples, else the step is a gap;
//   - increase: the reset-adjusted total increase across the window
//     (rate × observed span);
//   - quantile: the φ-quantile estimate over a histogram family's
//     _bucket series — per step, each bucket counter's increase over the
//     window rebuilds the window's distribution, then the standard
//     fixed-bucket linear interpolation (the same estimate
//     telemetry.Histogram.Summary uses) yields the value;
//   - raw: the undecimated stored samples in [start, end] — no alignment,
//     no window; the debugging and monotonicity-audit surface.
const (
	FuncLast     Func = "last"
	FuncAvg      Func = "avg"
	FuncMax      Func = "max"
	FuncRate     Func = "rate"
	FuncIncrease Func = "increase"
	FuncQuantile Func = "quantile"
	FuncRaw      Func = "raw"
)

// Funcs lists the valid function names.
func Funcs() []string {
	return []string{string(FuncLast), string(FuncAvg), string(FuncMax),
		string(FuncRate), string(FuncIncrease), string(FuncQuantile), string(FuncRaw)}
}

// Query is one range query.
type Query struct {
	// Name is the metric (family) name; for quantile it is the histogram
	// family, resolved to its _bucket series internally.
	Name string
	// Matchers are exact-equality label constraints (quantile matches
	// them against the bucket series' labels minus le).
	Matchers map[string]string
	Func     Func
	// Q is the quantile in (0,1], required for FuncQuantile.
	Q float64
	// Start and End bound the query; evaluation happens at every
	// step-aligned timestamp within [Start, End].
	Start, End time.Time
	// Step is the alignment grid and the default lookback window.
	Step time.Duration
	// Window overrides the lookback (zero selects Step). A window wider
	// than the step smooths rate over sparse scrapes.
	Window time.Duration
}

// Point is one (timestamp, value) sample. It marshals as the two-element
// array [t_unix_ms, value] so curves stay compact in JSON reports.
type Point struct {
	T int64
	V float64
}

// MarshalJSON renders [t, v].
func (p Point) MarshalJSON() ([]byte, error) {
	return []byte("[" + strconv.FormatInt(p.T, 10) + "," + formatJSONFloat(p.V) + "]"), nil
}

// UnmarshalJSON parses [t, v] — the gateway federates backend /query
// responses, so the wire shape round-trips.
func (p *Point) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return fmt.Errorf("tsdb: point %q is not a [t, v] pair", s)
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	if len(parts) != 2 {
		return fmt.Errorf("tsdb: point %q is not a [t, v] pair", s)
	}
	t, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return fmt.Errorf("tsdb: point timestamp: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return fmt.Errorf("tsdb: point value: %w", err)
	}
	p.T, p.V = t, v
	return nil
}

// formatJSONFloat renders a float for JSON (NaN/Inf cannot appear: gaps
// are omitted points, not NaN samples).
func formatJSONFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Result is one output series of a range query.
type Result struct {
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// Response is a full range-query answer — the GET /query wire shape.
type Response struct {
	Series  string   `json:"series"`
	Func    Func     `json:"func"`
	Q       float64  `json:"q,omitempty"`
	StartMs int64    `json:"start_ms"`
	EndMs   int64    `json:"end_ms"`
	StepMs  int64    `json:"step_ms"`
	Results []Result `json:"results"`
}

// seriesPoints pairs a stored series' labels with its decoded points.
type seriesPoints struct {
	labels []telemetry.Label
	pts    []Point
}

// Validate checks the query shape.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("tsdb: query needs a series name")
	}
	switch q.Func {
	case FuncLast, FuncAvg, FuncMax, FuncRate, FuncIncrease, FuncRaw:
	case FuncQuantile:
		if !(q.Q > 0 && q.Q <= 1) {
			return fmt.Errorf("tsdb: quantile needs q in (0,1], got %v", q.Q)
		}
	case "":
		return fmt.Errorf("tsdb: query needs a func (one of %s)", strings.Join(Funcs(), ", "))
	default:
		return fmt.Errorf("tsdb: unknown func %q (want one of %s)", q.Func, strings.Join(Funcs(), ", "))
	}
	if q.End.Before(q.Start) {
		return fmt.Errorf("tsdb: end precedes start")
	}
	if q.Func != FuncRaw && q.Step <= 0 {
		return fmt.Errorf("tsdb: query needs a positive step")
	}
	if q.Window < 0 {
		return fmt.Errorf("tsdb: negative window")
	}
	return nil
}

// Query evaluates a range query. Steps are aligned: evaluation timestamps
// are the multiples of Step within [Start, End] (so two queries with the
// same step land on the same grid regardless of their exact start). Steps
// whose window holds no (or for rate, fewer than two) samples are gaps —
// omitted points, never fabricated zeros.
func (db *DB) Query(q Query) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	defer db.queryHistObserve(q.Func, time.Now())
	resp := &Response{
		Series:  q.Name,
		Func:    q.Func,
		Q:       q.Q,
		StartMs: q.Start.UnixMilli(),
		EndMs:   q.End.UnixMilli(),
		StepMs:  q.Step.Milliseconds(),
	}
	if q.Func == FuncRaw {
		for _, sp := range db.matched(q.Name, q.Matchers, resp.StartMs, resp.EndMs) {
			resp.Results = append(resp.Results, Result{Labels: labelMap(sp.labels), Points: sp.pts})
		}
		return resp, nil
	}
	window := q.Window
	if window == 0 {
		window = q.Step
	}
	winMs := window.Milliseconds()
	stepMs := resp.StepMs
	first := alignUp(resp.StartMs, stepMs)
	if q.Func == FuncQuantile {
		return db.quantileQuery(q, resp, first, winMs)
	}
	for _, sp := range db.matched(q.Name, q.Matchers, resp.StartMs-winMs, resp.EndMs) {
		res := Result{Labels: labelMap(sp.labels)}
		for t := first; t <= resp.EndMs; t += stepMs {
			if v, ok := evalWindow(q.Func, windowOf(sp.pts, t-winMs, t)); ok {
				res.Points = append(res.Points, Point{T: t, V: v})
			}
		}
		if len(res.Points) > 0 {
			resp.Results = append(resp.Results, res)
		}
	}
	return resp, nil
}

// queryHistObserve records query latency under the func label. The
// histogram is created lazily against whichever registry registered the
// scrape histogram's family (the DB's owner). No-op until Register.
func (db *DB) queryHistObserve(fn Func, start time.Time) {
	db.mu.Lock()
	regs := append([]*telemetry.Registry(nil), db.registered...)
	db.mu.Unlock()
	for _, r := range regs {
		r.Histogram("vital_tsdb_query_seconds", "Range-query evaluation latency by function.",
			nil, telemetry.L("func", string(fn))).ObserveSince(start)
	}
}

// alignUp rounds t up to the next multiple of step.
func alignUp(t, step int64) int64 {
	if r := t % step; r != 0 {
		return t + step - r
	}
	return t
}

// windowOf returns the samples with from < T ≤ to (pts sorted by T).
func windowOf(pts []Point, from, to int64) []Point {
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T > from })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].T > to })
	return pts[lo:hi]
}

// evalWindow applies a scalar range function to one window of samples.
func evalWindow(fn Func, win []Point) (float64, bool) {
	if len(win) == 0 {
		return 0, false
	}
	switch fn {
	case FuncLast:
		return win[len(win)-1].V, true
	case FuncAvg:
		var sum float64
		for _, p := range win {
			sum += p.V
		}
		return sum / float64(len(win)), true
	case FuncMax:
		max := win[0].V
		for _, p := range win[1:] {
			if p.V > max {
				max = p.V
			}
		}
		return max, true
	case FuncRate, FuncIncrease:
		if len(win) < 2 {
			return 0, false
		}
		inc := counterIncrease(win)
		if fn == FuncIncrease {
			return inc, true
		}
		span := float64(win[len(win)-1].T-win[0].T) / 1000.0
		if span <= 0 {
			return 0, false
		}
		return inc / span, true
	default:
		// FuncRaw and FuncQuantile never reach the scalar evaluator —
		// Query dispatches them before the step loop.
		return 0, false
	}
}

// counterIncrease sums the positive deltas across the window — the
// standard counter-reset adjustment: a drop means the process restarted,
// and counting resumes from the post-reset value.
func counterIncrease(win []Point) float64 {
	var inc float64
	for i := 1; i < len(win); i++ {
		d := win[i].V - win[i-1].V
		if d < 0 {
			// Reset: the new value is entirely new increase.
			d = win[i].V
		}
		inc += d
	}
	return inc
}

// quantileQuery evaluates quantile-over-histogram: the stored _bucket
// counter series regroup (by their labels minus le) into per-instant
// distributions; at each aligned step the per-bucket increase over the
// window rebuilds the distribution of observations that landed in the
// window, and linear interpolation inside the crossing bucket estimates
// the quantile. Windows with no observations are gaps.
func (db *DB) quantileQuery(q Query, resp *Response, first, winMs int64) (*Response, error) {
	bucketSeries := db.matched(q.Name+"_bucket", q.Matchers, resp.StartMs-winMs, resp.EndMs)
	groups := map[string]*bucketGroup{}
	var order []string
	for _, sp := range bucketSeries {
		le, rest := splitLE(sp.labels)
		if le == "" {
			continue
		}
		upper := math.Inf(+1)
		if le != "+Inf" {
			u, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			upper = u
		}
		k := string(appendKey(nil, q.Name, rest))
		g, ok := groups[k]
		if !ok {
			g = &bucketGroup{labels: rest}
			groups[k] = g
			order = append(order, k)
		}
		g.buckets = append(g.buckets, bucketSeriesPoints{upper: upper, pts: sp.pts})
	}
	stepMs := resp.StepMs
	for _, k := range order {
		g := groups[k]
		sort.Slice(g.buckets, func(i, j int) bool { return g.buckets[i].upper < g.buckets[j].upper })
		res := Result{Labels: labelMap(g.labels)}
		for t := first; t <= resp.EndMs; t += stepMs {
			if v, ok := g.quantileAt(q.Q, t-winMs, t); ok {
				res.Points = append(res.Points, Point{T: t, V: v})
			}
		}
		if len(res.Points) > 0 {
			resp.Results = append(resp.Results, res)
		}
	}
	return resp, nil
}

type bucketSeriesPoints struct {
	upper float64
	pts   []Point
}

type bucketGroup struct {
	labels  []telemetry.Label
	buckets []bucketSeriesPoints
}

// quantileAt estimates the φ-quantile of the observations recorded in
// (from, to]: each bucket's cumulative counter increase over the window is
// that bucket's share of the window's distribution.
func (g *bucketGroup) quantileAt(phi float64, from, to int64) (float64, bool) {
	cum := make([]float64, len(g.buckets))
	any := false
	for i, b := range g.buckets {
		win := windowOf(b.pts, from, to)
		if len(win) >= 2 {
			cum[i] = counterIncrease(win)
			any = true
		}
	}
	if !any {
		return 0, false
	}
	// Repair any sampling raggedness: cumulative counts must be
	// non-decreasing across ascending bounds.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			cum[i] = cum[i-1]
		}
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0, false
	}
	rank := phi * total
	for i, c := range cum {
		if c < rank {
			continue
		}
		upper := g.buckets[i].upper
		if math.IsInf(upper, +1) {
			// Rank in the +Inf bucket: the highest finite bound is the
			// best point estimate the ladder offers.
			if i == 0 {
				return 0, false
			}
			return g.buckets[i-1].upper, true
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = g.buckets[i-1].upper, cum[i-1]
		}
		inBucket := c - below
		if inBucket <= 0 {
			return upper, true
		}
		return lo + (upper-lo)*(rank-below)/inBucket, true
	}
	if len(g.buckets) == 0 {
		return 0, false
	}
	return g.buckets[len(g.buckets)-1].upper, true
}

// splitLE extracts the le label, returning the remaining labels.
func splitLE(labels []telemetry.Label) (string, []telemetry.Label) {
	le := ""
	rest := make([]telemetry.Label, 0, len(labels))
	for _, l := range labels {
		if l.Key == "le" {
			le = l.Value
			continue
		}
		rest = append(rest, l)
	}
	return le, rest
}

func labelMap(labels []telemetry.Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// ParseSelector parses "name" or `name{key="value",key2="value2"}` into a
// metric name and equality matchers.
func ParseSelector(s string) (string, map[string]string, error) {
	s = strings.TrimSpace(s)
	brace := strings.IndexByte(s, '{')
	if brace < 0 {
		if s == "" {
			return "", nil, fmt.Errorf("tsdb: empty series selector")
		}
		return s, nil, nil
	}
	name := s[:brace]
	if name == "" {
		return "", nil, fmt.Errorf("tsdb: selector %q has no metric name", s)
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("tsdb: selector %q: unterminated label matchers", s)
	}
	matchers := map[string]string{}
	body := strings.TrimSpace(s[brace+1 : len(s)-1])
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return "", nil, fmt.Errorf("tsdb: selector %q: malformed matcher near %q", s, body)
		}
		k := strings.TrimSpace(body[:eq])
		rest := strings.TrimSpace(body[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return "", nil, fmt.Errorf("tsdb: selector %q: matcher value for %q must be quoted", s, k)
		}
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			return "", nil, fmt.Errorf("tsdb: selector %q: unterminated value for %q", s, k)
		}
		matchers[k] = rest[1 : 1+end]
		body = strings.TrimSpace(rest[end+2:])
		body = strings.TrimPrefix(body, ",")
		body = strings.TrimSpace(body)
	}
	return name, matchers, nil
}
