package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {51, 60}, {99, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// TestP99NeedsThousandSamples: below 1 000 samples fewer than ten lie
// beyond the 99th percentile, and it is not reported.
func TestP99NeedsThousandSamples(t *testing.T) {
	samples := make([]float64, minP99Samples-1)
	for i := range samples {
		samples[i] = float64(i)
	}
	if s := summarize(samples); s.HasP99 || s.N != minP99Samples-1 {
		t.Errorf("%d samples: HasP99=%v N=%d, want no p99", len(samples), s.HasP99, s.N)
	}
	samples = append(samples, 1e9)
	s := summarize(samples)
	if !s.HasP99 || s.P99 != 989 || s.P50 != 499 {
		t.Errorf("%d samples: p50=%v p99=%v HasP99=%v, want 499, 989, true", len(samples), s.P50, s.P99, s.HasP99)
	}
	var set metricSet
	set.timing("x", "us", samples[:10])
	if _, ok := set.get("x_p99_us"); ok {
		t.Error("timing reported a p99 over ten samples")
	}
	if m, ok := set.get("x_p50_us"); !ok || m.N != 10 {
		t.Errorf("timing p50 = %+v, %v", m, ok)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, the arithmetic the acceptance
// harness judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestSlicedFiguresShrugOffADisturbance: one slow second out of ten moves
// the whole-window throughput and not the per-slice median.
func TestSlicedFiguresShrugOffADisturbance(t *testing.T) {
	var ops []opSample
	for sec := 0; sec < 10; sec++ {
		n := 100
		if sec == 4 {
			n = 10
		}
		for i := 0; i < n; i++ {
			ops = append(ops, opSample{us: 1e6 / float64(n), at: float64(sec) + float64(i)/float64(n)})
		}
	}
	rate, p50, p90 := opFigures(ops, 10e9, true)
	if rate != 100 || p50 != 1e4 || p90 != 1e4 {
		t.Errorf("sliced: rate %v p50 %v p90 %v, want 100, 10000, 10000", rate, p50, p90)
	}
	if whole, _, _ := opFigures(ops, 10e9, false); whole != 91 {
		t.Errorf("whole window: rate %v, want 91", whole)
	}
}
