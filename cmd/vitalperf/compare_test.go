package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower inside the bound", lower, steady, []float64{108, 109, 107, 108, 110}, "ok"},
		{"slower past the bound", lower, steady, []float64{112, 113, 111, 112, 114}, "worse"},
		{"faster is never worse", lower, steady, []float64{50, 51, 49, 50, 52}, "ok"},
		{"throughput down past the bound", higher, steady, []float64{88, 89, 87, 88, 90}, "worse"},
		{"throughput up", higher, steady, []float64{130, 131, 129, 130, 132}, "ok"},
		{"spread wider than the bound", lower, steady, []float64{80, 100, 120, 140, 90}, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if ratio, _ := verdict(lower, []float64{100}, []float64{125}); ratio != 1.25 {
		t.Errorf("ratio %v, want 1.25 (b over the base a)", ratio)
	}
}
