package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType classifies a metric family for exposition.
type MetricType string

// Metric types, matching the Prometheus text-format TYPE keywords.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets is the default latency bucket ladder, in seconds: 5µs to 10s,
// wide enough to cover a cache-hit compile (tens of µs), a deploy (ms), and
// a cold Table 2 compile (seconds) in one histogram shape.
var DefBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Exemplar pins one recent observation to the trace that produced it,
// surfaced in the Prometheus exposition so a slow bucket links straight
// to a concrete trace ID.
type Exemplar struct {
	Value   float64
	TraceID string
}

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds plus a short bucket scan — cheap enough for every hot path.
type Histogram struct {
	// uppers holds the bucket upper bounds, ascending; counts has one extra
	// slot for the implicit +Inf bucket. Bucket counts are stored
	// non-cumulative and summed at read time.
	uppers []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	// sum accumulates seconds as float bits via CAS: observations are
	// per-operation (not per-packet), so contention is negligible.
	sum atomic.Uint64
	// exemplars keeps the latest traced observation per bucket (last
	// writer wins; a torn pair is impossible since the whole Exemplar
	// swaps atomically).
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not ascending: %v", uppers))
		}
	}
	return &Histogram{
		uppers:    append([]float64(nil), uppers...),
		counts:    make([]atomic.Uint64, len(uppers)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uppers)+1),
	}
}

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is nonempty, pins
// it as the bucket's exemplar so the exposition can point at the trace
// behind the observation.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// snapshot returns cumulative bucket counts (aligned with uppers, +Inf
// last), the total count and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// HistogramSummary condenses a histogram for JSON payloads and CLIs. The
// quantiles are estimated by linear interpolation within the bucket that
// crosses the target rank, the standard fixed-bucket estimate.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Summary computes the current count, sum and p50/p90/p99 estimates.
func (h *Histogram) Summary() HistogramSummary {
	cum, count, sum := h.snapshot()
	return HistogramSummary{
		Count: count,
		Sum:   sum,
		P50:   h.quantile(cum, count, 0.50),
		P90:   h.quantile(cum, count, 0.90),
		P99:   h.quantile(cum, count, 0.99),
	}
}

func (h *Histogram) quantile(cum []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i == len(h.uppers) {
			// Rank landed in the +Inf bucket: the best point estimate the
			// fixed ladder offers is the highest finite bound.
			return h.uppers[len(h.uppers)-1]
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = h.uppers[i-1]
			below = cum[i-1]
		}
		width := h.uppers[i] - lo
		inBucket := float64(c - below)
		if inBucket == 0 {
			return h.uppers[i]
		}
		return lo + width*(rank-float64(below))/inBucket
	}
	return h.uppers[len(h.uppers)-1]
}

// series is one labeled instance within a family. A handle's series has
// exactly one of counter, gauge or hist set; a collector's sample carries
// its value. sig is the canonical label signature families index and
// renderers sort by.
type series struct {
	sig     string
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	value   float64
}

// load is the series' current value (a histogram has none: renderers expand
// or summarise it).
func (s *series) load() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return s.value
}

// family groups the series of one metric name. The series map and the
// funcs list are guarded by the registry's mutex and never touched outside
// it; the rest is fixed at creation.
type family struct {
	name   string
	help   string
	typ    MetricType
	uppers []float64 // histogram families only
	// les holds a histogram family's le label values, one per bound and
	// "+Inf" last, formatted once for every series and every walk.
	les    []string
	series map[string]*series
	// funcs are the family's one-series collectors, append-only.
	funcs []oneSeries
}

// oneSeries is a GaugeFunc/CounterFunc series: its signature and labels are
// fixed when it is registered, and only its value, fn(), is read per walk.
type oneSeries struct {
	sig    string
	labels []Label
	fn     func() float64
}

// Registry is a set of named metrics. Get-or-create lookups take a mutex;
// the returned handles are lock-free, so hot paths resolve once and update
// forever. State that already lives elsewhere (a controller's deployment
// table, a queue's depth) is not mirrored into handles: its owner registers
// one collector, which emits that state's samples at every walk.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(Emit) // append-only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// stackLabels is the label count the renderers sort in a stack array; a
// longer label set still renders, from a heap copy.
const stackLabels = 16

// signature renders labels as a canonical key sorted by label key —
// k1="v1",k2="v2", values Go-quoted — building it in stack arrays so the
// returned string is its one allocation.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var ls [stackLabels]Label
	sorted := append(ls[:0], labels...)
	sortByKey(sorted)
	var buf [256]byte
	b := buf[:0]
	for i, l := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return string(b)
}

// sortByKey insertion-sorts labels by key in place. It is stable, and a
// series carries a handful of labels, so it beats a general sort here.
func sortByKey(labels []Label) {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Key < labels[j-1].Key; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
}

func validate(name string, labels []Label) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, l.Key))
		}
	}
}

// familyLocked returns the family called name, creating it as needed; the
// caller holds r.mu. A name registered twice with different types is a
// programming error and panics.
func (r *Registry) familyLocked(name, help string, typ MetricType, uppers []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		if typ == TypeHistogram {
			if len(uppers) == 0 {
				uppers = DefBuckets
			}
			f.uppers = append([]float64(nil), uppers...)
			f.les = make([]string, len(uppers)+1)
			for i, u := range uppers {
				f.les[i] = string(appendFloat(nil, u))
			}
			f.les[len(uppers)] = "+Inf"
		}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// lookup returns the series for (name, labels), creating it and its family
// as needed. The typed slot (counter, gauge or histogram) is filled in
// while r.mu is still held: a series must be fully built before any
// concurrent lookup of the same (name, labels) can observe it, otherwise a
// second caller races its read of the slot against the creator's write.
// Only the creating branch validates: an existing series was validated
// under the same name and label keys when it was created, and per-request
// lookups (the HTTP and tenant counters) skip the regexps.
func (r *Registry) lookup(name, help string, typ MetricType, uppers []float64, labels []Label) *series {
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.typ == typ {
		if s, ok := f.series[sig]; ok {
			return s
		}
	}
	validate(name, labels)
	f := r.familyLocked(name, help, typ, uppers)
	s := &series{sig: sig, labels: append([]Label(nil), labels...)}
	switch typ {
	case TypeCounter:
		s.counter = &Counter{}
	case TypeGauge:
		s.gauge = &Gauge{}
	case TypeHistogram:
		s.hist = newHistogram(f.uppers)
	}
	f.series[sig] = s
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, TypeCounter, nil, labels).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, TypeGauge, nil, labels).gauge
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket upper bounds (nil selects DefBuckets) on first use. Every
// series of a family shares the family's bucket ladder.
func (r *Registry) Histogram(name, help string, uppers []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, TypeHistogram, uppers, labels).hist
}

// Desc is a counter or gauge family declared for a collector to emit into,
// with the label keys its series carry.
type Desc struct {
	f    *family
	keys []string
}

// Emit reports one sample of a declared family to the walk in progress;
// labelValues pair with the Desc's keys. The series a walk is given must
// be distinct.
type Emit func(d Desc, value float64, labelValues ...string)

// CounterDesc declares a counter family for a collector; the values emitted
// for one label set must be monotone while the entity they describe lives.
func (r *Registry) CounterDesc(name, help string, labelKeys ...string) Desc {
	return r.desc(name, help, TypeCounter, labelKeys)
}

// GaugeDesc declares a gauge family for a collector.
func (r *Registry) GaugeDesc(name, help string, labelKeys ...string) Desc {
	return r.desc(name, help, TypeGauge, labelKeys)
}

func (r *Registry) desc(name, help string, typ MetricType, keys []string) Desc {
	labels := make([]Label, len(keys))
	for i, k := range keys {
		labels[i].Key = k
	}
	validate(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return Desc{f: r.familyLocked(name, help, typ, nil), keys: keys}
}

// Collect registers a collector: fn runs once per walk, outside the
// registry lock, and emits the current samples of the families its owner
// declared. A series exists exactly while its collector emits it: nothing
// is registered per entity and nothing needs unregistering when it goes.
func (r *Registry) Collect(fn func(emit Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// GaugeFunc registers a one-series collector whose value is fn(), for the
// fixed, per-process series; per-entity state belongs in one Collect.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.collectFunc(name, help, TypeGauge, fn, labels)
}

// CounterFunc is GaugeFunc for a counter; fn must be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.collectFunc(name, help, TypeCounter, fn, labels)
}

func (r *Registry) collectFunc(name, help string, typ MetricType, fn func() float64, labels []Label) {
	validate(name, labels)
	// Walks share the label slice read-only; its capacity is its length, so
	// no reader's append can write into it.
	own := make([]Label, len(labels))
	copy(own, labels)
	one := oneSeries{sig: signature(labels), labels: own, fn: fn}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ, nil)
	f.funcs = append(f.funcs, one)
}

// walkedFamily is one family as a walk observed it: series is the walk's
// own copy, sorted by label signature (fam.series and fam.funcs stay
// behind r.mu; funcs is the walk's view of the latter).
type walkedFamily struct {
	fam    *family
	series []*series
	funcs  []oneSeries
}

// walkChunk is how many collected series (and twice as many labels) a walk
// allocates at a time.
const walkChunk = 128

// walk is the registry's one reader; Samples, WritePrometheus and Snapshot
// render from it. Under r.mu it copies every family and its series
// pointers; after the unlock it reads each one-series collector's value
// and runs each collector once. No reader therefore touches a family's map
// while a writer may be creating a series in it, and a collector is free
// to take its owner's locks. Families come back sorted by name; one
// nothing emitted into is left out. The one-series collectors' series come
// from one per-walk slab, with the signature and labels they were
// registered with; the series a collector emits, and their label slices,
// are carved from per-walk chunks rather than allocated one by one.
func (r *Registry) walk() []walkedFamily {
	r.mu.Lock()
	fams := make([]walkedFamily, 0, len(r.families))
	nfuncs := 0
	for _, f := range r.families {
		ws := make([]*series, 0, len(f.series)+len(f.funcs))
		//lint:ignore mapdeterminism every family's series are sorted below, once the collectors have added theirs
		for _, s := range f.series {
			ws = append(ws, s)
		}
		fams = append(fams, walkedFamily{fam: f, series: ws, funcs: f.funcs})
		nfuncs += len(f.funcs)
	}
	collectors := r.collectors
	r.mu.Unlock()

	funcSlab := make([]series, 0, nfuncs)
	for i := range fams {
		f := &fams[i]
		for _, one := range f.funcs {
			funcSlab = append(funcSlab, series{sig: one.sig, labels: one.labels, value: one.fn()})
			f.series = append(f.series, &funcSlab[len(funcSlab)-1])
		}
	}

	slices.SortFunc(fams, func(a, b walkedFamily) int { return strings.Compare(a.fam.name, b.fam.name) })
	slot := make(map[*family]int, len(fams))
	for i, f := range fams {
		slot[f.fam] = i
	}
	var (
		seriesChunk []series
		labelChunk  []Label
	)
	emit := func(d Desc, value float64, labelValues ...string) {
		if len(labelValues) != len(d.keys) {
			panic(fmt.Sprintf("telemetry: metric %q emitted with %d label values for keys %v", d.f.name, len(labelValues), d.keys))
		}
		var labels []Label
		if n := len(d.keys); n > 0 {
			if len(labelChunk)+n > cap(labelChunk) {
				labelChunk = make([]Label, 0, max(2*walkChunk, n))
			}
			at := len(labelChunk)
			labelChunk = labelChunk[:at+n]
			labels = labelChunk[at : at+n : at+n]
			for i, k := range d.keys {
				labels[i] = Label{Key: k, Value: labelValues[i]}
			}
		}
		if len(seriesChunk) == cap(seriesChunk) {
			seriesChunk = make([]series, 0, walkChunk)
		}
		seriesChunk = append(seriesChunk, series{sig: signature(labels), labels: labels, value: value})
		f := &fams[slot[d.f]]
		f.series = append(f.series, &seriesChunk[len(seriesChunk)-1])
	}
	for _, collect := range collectors {
		collect(emit)
	}

	live := fams[:0]
	for _, f := range fams {
		if len(f.series) > 0 {
			slices.SortFunc(f.series, func(a, b *series) int { return strings.Compare(a.sig, b.sig) })
			live = append(live, f)
		}
	}
	return live
}

// expand renders the series as exposition-shaped points and is the only
// place a histogram is flattened: a counter or gauge is one point with no
// suffix; a histogram is one cumulative _bucket point per bound, le taken
// from les (its family's formatted ladder, "+Inf" last) and each with its
// exemplar if any, then _sum and _count, which carry no le. Each bucket is
// thereby an ordinary monotone counter series keyed by le, which lets a
// store scraped from Samples answer quantile-over-histogram queries. point
// gets the pieces of a point, not a built label set: the text writer
// appends them in place and Samples builds the label slice it stores.
func (s *series) expand(les []string, point func(suffix, le string, v float64, ex *Exemplar)) {
	h := s.hist
	if h == nil {
		point("", "", s.load(), nil)
		return
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		point("_bucket", les[i], float64(cum), h.exemplars[i].Load())
	}
	count, sum := h.count.Load(), math.Float64frombits(h.sum.Load())
	point("_sum", "", sum, nil)
	point("_count", "", float64(count), nil)
}

// SeriesSnapshot is one series' current value for JSON payloads.
type SeriesSnapshot struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     float64           `json:"value"`
	Histogram *HistogramSummary `json:"histogram,omitempty"`
}

// FamilySnapshot is one family's current state for JSON payloads.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   MetricType       `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns every family's current state, sorted by name with
// series sorted by label signature — a deterministic JSON rendering, with
// each histogram condensed to its summary.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.walk()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.fam.name, Type: f.fam.typ, Help: f.fam.help, Series: make([]SeriesSnapshot, 0, len(f.series))}
		for _, s := range f.series {
			ss := SeriesSnapshot{Labels: labelMap(s.labels), Value: s.load()}
			if s.hist != nil {
				sum := s.hist.Summary()
				ss.Histogram, ss.Value = &sum, sum.Sum
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}
