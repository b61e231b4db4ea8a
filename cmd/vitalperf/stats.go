package main

import (
	"math"
	"sort"
	"time"
)

// minP99Samples is the sample count below which a p99 is not reported:
// with 1 000 samples exactly ten lie beyond the 99th percentile, the
// fewest that make it more than a restatement of the worst few requests.
const minP99Samples = 1000

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample: the smallest value with at least p % of the
// sample at or below it. No interpolation, so every reported figure is a
// latency some request actually had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// timing is a latency sample summarised the way every timing in the
// report is: median, p99 where the sample supports one, and the count.
type timing struct {
	N      int
	P50    float64
	P99    float64
	HasP99 bool
}

// summarize sorts a copy of samples and summarises it.
func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), P50: percentile(s, 50), P99: math.NaN()}
	if len(s) >= minP99Samples {
		t.P99, t.HasP99 = percentile(s, 99), true
	}
	return t
}

// median is summarize(samples).P50 for callers that need nothing else.
func median(samples []float64) float64 { return summarize(samples).P50 }

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the default
// "exclusive" method), so the spread -compare prints is the one the
// acceptance harness computes. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		// Taken after the clamp, as Python does: a clamped cut point
		// extrapolates from the outermost pair.
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure a bound is judged against. Fewer than two
// values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// micros and millis convert a duration to the float unit a metric uses.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
