package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// shortWindow is the measured window of the tier-1 sizing.
const shortWindow = 600 * time.Millisecond

// TestWorkloadsReportEveryMetric runs the short sizing of all four
// workloads, traced (a traced run reports both metric sets), and holds
// each against the contract: every gated metric present once, in the
// contract's unit, finite, every correctness check passed, and the
// acceptance harness's result line well-formed in both modes.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			r, err := runWorkload(w.Name, short(shortWindow), 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range r.Failures {
				t.Errorf("correctness check failed: %s", f)
			}
			if r.ScheduleHash == "" || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("schedule %q attempted %d failed %d", r.ScheduleHash, r.Attempted, r.Failed)
			}
			check := func(defs []metricDef, got []metric) {
				seen := map[string]int{}
				units := map[string]string{}
				for _, m := range got {
					seen[m.Name]++
					units[m.Name] = m.Unit
				}
				for _, d := range defs {
					if seen[d.Name] != 1 {
						t.Errorf("metric %s reported %d times", d.Name, seen[d.Name])
					} else if units[d.Name] != d.Unit {
						t.Errorf("metric %s in %q, the contract says %q", d.Name, units[d.Name], d.Unit)
					}
				}
			}
			check(gatedEndToEnd, r.EndToEnd)
			check(gatedPerLayer, r.Layers)
			for _, d := range gatedEndToEnd {
				if m, _ := r.e2e.get(d.Name); m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
				}
			}
			if len(r.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for _, traced := range []bool{false, true} {
				r.Traced = traced
				line, err := r.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("result line %s: %v", line, err)
				}
				want := gatedEndToEnd
				if traced {
					want = gatedPerLayer
				}
				if got.Correct == nil || !*got.Correct || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(want) {
					t.Errorf("result line %s", line)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables: the contract file at the root of the
// repository is the one the metric tables generate.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with go run ./cmd/vitalperf -benchmark-json > BENCHMARK.json")
	}
}
