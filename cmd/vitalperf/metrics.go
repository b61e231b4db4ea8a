package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metric is one reported number. N is the sample count behind a timing
// (0 for counts and single measurements).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// metricDef is the contract for a metric BENCHMARK.json lists: its unit,
// which direction is better and, for an end-to-end metric, the share of
// the parent's median by which it may worsen before it is a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// gatedEndToEnd are the end-to-end metrics every workload reports under
// one definition, which is what the acceptance harness gates on. "op" is
// the workload's own unit of tenant work: a tenant cycle on warm_churn, a
// session on sprawl_open, one design brought from never seen to deployed
// on cold_compile, one pass over the three apps on execute_stream. The
// per-workload names of the same numbers (cycles_per_s, ready_p50_us, …)
// and the tails are in the full report.
//
// The bounds come from the spreads measured on the reference VM (2 vCPUs,
// two sets of ten runs per workload, interquartile range over median):
// up to 10 % on compile_cold_s and scrape_p50_ms, 9 % on op_p50_us, 6 %
// on ops_per_s, 2 % on heap_live_mb. A bound is about three times the
// worst spread seen, and at most the contract's 0.25.
var gatedEndToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "compile_cold_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "scrape_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// gatedPerLayer are the layer metrics every workload's traced run
// reports. They carry no bound: they say where an end-to-end change came
// from, they are not themselves gated.
var gatedPerLayer = []metricDef{
	{Name: "sched.resourcedb.alloc_cycle_us", Unit: "us", Better: "lower"},
	{Name: "sched.controller.deploy_us", Unit: "us", Better: "lower"},
	{Name: "sched.controller.undeploy_us", Unit: "us", Better: "lower"},
	{Name: "sched.async.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "sched.async.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "sched.async.run_us", Unit: "us", Better: "lower"},
	{Name: "sched.async.shed", Unit: "count", Better: "lower"},
	{Name: "sched.async.ticket_failed_retryable", Unit: "count", Better: "lower"},
	{Name: "sched.http.handler_us", Unit: "us", Better: "lower"},
	{Name: "sched.http.loopback_us", Unit: "us", Better: "lower"},
	{Name: "gateway.submit_inproc_us", Unit: "us", Better: "lower"},
	{Name: "gateway.submit_twohop_us", Unit: "us", Better: "lower"},
	{Name: "gateway.self_us", Unit: "us", Better: "lower"},
	{Name: "gateway.coalesced", Unit: "count", Better: "higher"},
	{Name: "gateway.cold_submits", Unit: "count", Better: "lower"},
	{Name: "bitstream.cache_hits", Unit: "count", Better: "higher"},
	{Name: "bitstream.cache_misses", Unit: "count", Better: "lower"},
	{Name: "core.compile.wall_s", Unit: "s", Better: "lower"},
	{Name: "hls.synthesis_s", Unit: "s", Better: "lower"},
	{Name: "partition.partition_s", Unit: "s", Better: "lower"},
	{Name: "core.compile.interface_gen_s", Unit: "s", Better: "lower"},
	{Name: "pnr.local_s", Unit: "s", Better: "lower"},
	{Name: "bitstream.relocation_s", Unit: "s", Better: "lower"},
	{Name: "pnr.global_s", Unit: "s", Better: "lower"},
	{Name: "core.compile.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "partition.blocks", Unit: "count", Better: "lower"},
	{Name: "partition.cut_channels", Unit: "count", Better: "lower"},
	{Name: "core.execute.call_us", Unit: "us", Better: "lower"},
	{Name: "interconnect.model_cycles", Unit: "count", Better: "lower"},
	{Name: "interconnect.gated_cycles", Unit: "count", Better: "lower"},
	{Name: "interconnect.overhead_fraction", Unit: "ratio", Better: "lower"},
	{Name: "memvirt.dram_bytes", Unit: "count", Better: "lower"},
	{Name: "telemetry.registry.series", Unit: "count", Better: "lower"},
	{Name: "telemetry.registry.exposition_bytes", Unit: "count", Better: "lower"},
	{Name: "telemetry.registry.write_prom_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.tsdb.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.tsdb.series", Unit: "count", Better: "lower"},
	{Name: "telemetry.trace.evicted", Unit: "count", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher"},
	{Name: "loadgen.failed", Unit: "count", Better: "lower"},
	{Name: "loadgen.refused", Unit: "count", Better: "lower"},
	{Name: "loadgen.polls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func init() {
	for _, name := range spanNames {
		gatedPerLayer = append(gatedPerLayer, metricDef{Name: "span." + name + ".self_p50_us", Unit: "us", Better: "lower"})
	}
}

// workloadDef names a workload, says why it exists, and runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(e *env, r *result) error
}

var workloadDefs = []workloadDef{
	{Name: "warm_churn", run: runWarmChurn, Why: "closed-loop deploy/execute/undeploy of cached designs: gateway, HTTP hop, async queue, controller and allocator do the work; compile and scrapes do none"},
	{Name: "cold_compile", run: runColdCompile, Why: "never-seen designs on fresh caches: the compile pipeline does over 99% of the work, so a control-path change should move nothing here"},
	{Name: "sprawl_open", run: runSprawlOpen, Why: "open-loop Poisson sessions on 64 boards beside an operator scraping: reads beside writes, ~300 live apps, 20k metric series, real queueing"},
	{Name: "execute_stream", run: runExecuteStream, Why: "10000-token executes on three fixed placements: the cycle-level data plane does the work and the control path is idle"},
}

// benchmarkJSON renders the root BENCHMARK.json from the tables above, so
// the contract file and the binary cannot drift apart (a test compares
// them).
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []interface{} `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"cmd/vitalperf", "bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   gatedEndToEnd,
	}
	for _, d := range gatedPerLayer {
		doc.PerLayer = append(doc.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// metricSet collects a run's metrics by name, rejecting a duplicate or a
// non-finite value at the point it is reported rather than in a consumer.
type metricSet struct {
	list []metric
	seen map[string]bool
	errs []string
}

func (s *metricSet) put(name, unit string, value float64, n int) {
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if s.seen[name] {
		s.errs = append(s.errs, fmt.Sprintf("metric %s reported twice", name))
		return
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		s.errs = append(s.errs, fmt.Sprintf("metric %s is not finite", name))
		return
	}
	s.seen[name] = true
	s.list = append(s.list, metric{Name: name, Unit: unit, Value: value, N: n})
}

// timing reports a latency sample as <base>_p50_<unit> and, where the
// sample supports it, <base>_p99_<unit>.
func (s *metricSet) timing(base, unit string, samples []float64) {
	t := summarize(samples)
	if t.N == 0 {
		s.errs = append(s.errs, fmt.Sprintf("metric %s has no samples", base))
		return
	}
	s.put(base+"_p50_"+unit, unit, t.P50, t.N)
	if t.HasP99 {
		s.put(base+"_p99_"+unit, unit, t.P99, t.N)
	}
}

func (s *metricSet) get(name string) (metric, bool) {
	for _, m := range s.list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// sorted returns the metrics by name.
func (s *metricSet) sorted() []metric {
	out := append([]metric(nil), s.list...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
