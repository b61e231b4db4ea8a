package telemetry

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vital_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("vital_test_total", "test counter"); again != c {
		t.Fatalf("second lookup returned a different counter handle")
	}
	g := r.Gauge("vital_test_gauge", "test gauge", L("board", "0"))
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Distinct labels are distinct series.
	g1 := r.Gauge("vital_test_gauge", "test gauge", L("board", "1"))
	if g1 == g {
		t.Fatalf("distinct labels shared one series")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("vital_test_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("vital_test_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid metric name did not panic")
		}
	}()
	r.Counter("vital-bad-name", "")
}

// Names and label keys are validated only where a series is created, but
// there they always are: a family that already holds valid series still
// rejects a new series with an invalid label key, and the panic leaves the
// registry usable.
func TestRegistryInvalidLabelKeyPanicsInExistingFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("vital_test_total", "", L("route", "a")).Inc()
	r.Counter("vital_test_total", "", L("route", "a")).Inc()
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid label key in an existing family did not panic")
		}
		if c := r.Counter("vital_test_total", "", L("route", "a")); c.Value() != 2 {
			t.Fatalf("existing series = %d after the panic, want 2", c.Value())
		}
	}()
	r.Counter("vital_test_total", "", L("0bad", "a"))
}

func TestHistogramBucketsAndSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	// 100 observations at 5ms: p50/p90/p99 all interpolate inside the
	// (0.001, 0.01] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if math.Abs(s.Sum-0.5) > 1e-9 {
		t.Fatalf("sum = %v, want 0.5", s.Sum)
	}
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q <= 0.001 || q > 0.01 {
			t.Fatalf("quantile %v outside the observed bucket (0.001, 0.01]", q)
		}
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, s.P90, s.P99)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	// 90 fast + 10 slow: p50 in the first bucket, p99 in the slow bucket.
	for i := 0; i < 90; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	s := h.Summary()
	if s.P50 > 0.001 {
		t.Fatalf("p50 = %v, want <= 0.001", s.P50)
	}
	if s.P99 <= 0.01 || s.P99 > 0.1 {
		t.Fatalf("p99 = %v, want in (0.01, 0.1]", s.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", []float64{0.001, 0.01})
	h.Observe(5) // beyond every finite bucket
	s := h.Summary()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	// The +Inf bucket's best point estimate is the highest finite bound.
	if s.P99 != 0.01 {
		t.Fatalf("p99 = %v, want the highest finite bound 0.01", s.P99)
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", []float64{0.2})
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	s := h.Summary()
	// One finite bucket holding everything: rank 5 of 10 interpolates to
	// 0 + 0.2·(5/10) = 0.1.
	if math.Abs(s.P50-0.1) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.1", s.P50)
	}
}

func TestHistogramExactBoundaryRank(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", []float64{0.1, 0.5})
	for i := 0; i < 10; i++ {
		h.Observe(0.05) // ≤ 0.1
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.3) // (0.1, 0.5]
	}
	// rank = 0.5·20 = 10, exactly the first bucket's cumulative count:
	// interpolation reaches the 0.1 boundary without spilling over.
	if got := h.Summary().P50; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("p50 = %v, want exactly the 0.1 bucket boundary", got)
	}
}

func TestHistogramEmptySummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", nil)
	s := h.Summary()
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("empty histogram summary not zero: %+v", s)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", nil)
	h.ObserveDuration(3 * time.Millisecond)
	if s := h.Summary(); math.Abs(s.Sum-0.003) > 1e-9 {
		t.Fatalf("sum = %v, want 0.003", s.Sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vital_test_seconds", "", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.002)
			}
		}()
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if math.Abs(s.Sum-workers*per*0.002) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, workers*per*0.002)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("vital_test_live", "live gauge", func() float64 { return v })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Series[0].Value != 1 {
		t.Fatalf("snapshot = %+v, want value 1", snap)
	}
	v = 7
	if got := r.Snapshot()[0].Series[0].Value; got != 7 {
		t.Fatalf("second snapshot = %v, want the live value 7", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("vital_b_total", "")
	r.Counter("vital_a_total", "")
	r.Gauge("vital_c", "", L("board", "1"))
	r.Gauge("vital_c", "", L("board", "0"))
	snap := r.Snapshot()
	if snap[0].Name != "vital_a_total" || snap[1].Name != "vital_b_total" || snap[2].Name != "vital_c" {
		t.Fatalf("families not sorted: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[2].Series[0].Labels["board"] != "0" || snap[2].Series[1].Labels["board"] != "1" {
		t.Fatalf("series not sorted by label signature: %+v", snap[2].Series)
	}
}

// Regression: the first caller of a (name, labels) pair used to fill in the
// typed slot after lookup had released the registry mutex, so a concurrent
// caller of the same series raced its read of s.counter against the
// creator's write. Lazy creation under parallel HTTP traffic (per-status
// counters in InstrumentRoute) is exactly this shape.
func TestRegistryConcurrentLazyCreate(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				reg.Counter("lazy_total", "", L("code", "200")).Inc()
				reg.Gauge("lazy_depth", "", L("class", "latency")).Set(float64(j))
				reg.Histogram("lazy_seconds", "", nil, L("route", "/submit")).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("lazy_total", "", L("code", "200")).Value(); got != workers*50 {
		t.Fatalf("counter = %d, want %d", got, workers*50)
	}
}

// A collector's samples exist exactly while it emits them: nothing is
// registered per entity, so an entity that goes leaves no series behind,
// and all three renderers show the same walk.
func TestCollectorSeriesFollowTheEntity(t *testing.T) {
	r := NewRegistry()
	live := map[string]float64{}
	used := r.GaugeDesc("vital_test_used", "Blocks held, per app.", "app")
	reads := r.CounterDesc("vital_test_reads_total", "Reads, per app.", "app")
	calls := 0
	r.Collect(func(emit Emit) {
		calls++
		for _, app := range []string{"b", "a"} { // emitted out of order on purpose
			if v, ok := live[app]; ok {
				emit(used, v, app)
				emit(reads, 2*v, app)
			}
		}
	})
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("families with nothing emitted must be left out, got %+v", snap)
	}
	live["a"], live["b"] = 1, 2
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "vital_test_reads_total" || snap[0].Type != TypeCounter ||
		snap[1].Name != "vital_test_used" || snap[1].Help != "Blocks held, per app." {
		t.Fatalf("snapshot = %+v", snap)
	}
	if s := snap[1].Series; len(s) != 2 || s[0].Labels["app"] != "a" || s[0].Value != 1 || s[1].Value != 2 {
		t.Fatalf("series not sorted by label signature: %+v", s)
	}
	before := calls
	if got := r.Samples(); len(got) != 4 || got[0].Name != "vital_test_reads_total" || got[0].Value != 2 {
		t.Fatalf("samples = %+v", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if calls != before+2 {
		t.Fatalf("collector ran %d times over two walks, want once per walk", calls-before)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `vital_test_used{app="b"} 2`) {
		t.Fatalf("exposition missing the live app:\n%s", buf.String())
	}
	delete(live, "b")
	buf.Reset()
	_ = r.WritePrometheus(&buf)
	if strings.Contains(buf.String(), `app="b"`) {
		t.Fatalf("series outlived its entity:\n%s", buf.String())
	}
}

// Readers must be able to run beside writers that lazily create series.
// Before the registry had one walk, WritePrometheus, Snapshot and Samples
// each indexed a family's series map after releasing the registry lock, so
// this test died with "fatal error: concurrent map read and map write".
func TestRegistryReadersBesideSeriesCreation(t *testing.T) {
	r := NewRegistry()
	r.Histogram("vital_test_seconds", "Latency by route.", nil, L("route", "seed")).Observe(0.001)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				code := strconv.Itoa(w*10000 + i)
				r.Counter("vital_test_requests_total", "Requests by code.", L("code", code)).Inc()
				r.Gauge("vital_test_depth", "Depth by code.", L("code", code)).Set(1)
				r.Histogram("vital_test_seconds", "Latency by route.", nil, L("route", code)).Observe(0.001)
			}
		}(w)
	}
	for _, read := range []func(){
		func() { _ = r.WritePrometheus(io.Discard) },
		func() { r.Snapshot() },
		func() { r.Samples() },
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	series := 0
	for _, f := range r.Snapshot() {
		series += len(f.Series)
	}
	if want := 3*4*2000 + 1; series != want {
		t.Fatalf("registry holds %d series, want %d", series, want)
	}
}
