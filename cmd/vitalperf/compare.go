package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// exactLayer are the per-layer counts that must be equal between two
// reports of the same workload, whatever the host did: the partitioner's
// output, the interconnect model's, and the compile cache's misses.
var exactLayer = []string{
	"partition.blocks", "partition.cut_channels",
	"interconnect.model_cycles", "interconnect.gated_cycles", "memvirt.dram_bytes",
	"bitstream.cache_misses",
}

// series collects, for one workload of one report, every value each
// metric took: end-to-end metrics over the untraced runs (a traced run's
// are not comparable with them), layer metrics over all runs.
type series struct {
	e2e, layer map[string][]float64
}

func collect(rep *report) map[string]*series {
	out := map[string]*series{}
	for _, r := range rep.Runs {
		s := out[r.Workload]
		if s == nil {
			s = &series{e2e: map[string][]float64{}, layer: map[string][]float64{}}
			out[r.Workload] = s
		}
		for _, m := range r.Layers {
			s.layer[m.Name] = append(s.layer[m.Name], m.Value)
		}
		if !r.Traced {
			for _, m := range r.EndToEnd {
				s.e2e[m.Name] = append(s.e2e[m.Name], m.Value)
			}
		}
	}
	return out
}

// verdict judges b against the base a for one gated metric: worse when
// b's median is worse than a's by more than the bound, unresolved when
// either side's own run-to-run spread is wider than the bound (the medians
// then say nothing either way), else ok.
func verdict(d metricDef, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+d.Bound)
	if d.Better == "higher" {
		worse = mb < ma*(1-d.Bound)
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return mb / ma, "unresolved"
	case worse:
		return mb / ma, "worse"
	}
	return mb / ma, "ok"
}

// compareFiles prints one row per workload × end-to-end metric and the
// exact-match layer counts, and fails if a gated row is worse or
// unresolved or a count differs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	repA, err := readReport(pathA)
	if err != nil {
		return err
	}
	repB, err := readReport(pathB)
	if err != nil {
		return err
	}
	a, b := collect(repA), collect(repB)
	fmt.Fprintf(w, "base a: %s  commit %s  seed %d  %d s\n", pathA, repA.Commit, repA.Seed, repA.Seconds)
	fmt.Fprintf(w, "     b: %s  commit %s  seed %d  %d s\n\n", pathB, repB.Commit, repB.Seed, repB.Seconds)
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "b/a", "bound", "spread a", "spread b", "verdict")
	bad := 0
	for _, wl := range workloadDefs {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-15s missing from one report\n", wl.Name)
			bad++
			continue
		}
		row := func(name, bound, v string, ratio float64) {
			va, vb := sa.e2e[name], sb.e2e[name]
			fmt.Fprintf(w, "%-15s %-22s %14.6g %14.6g %9.4f %7s %7.1f%% %7.1f%%  %s\n",
				wl.Name, name, median(va), median(vb), ratio, bound, 100*spread(va), 100*spread(vb), v)
		}
		gated := map[string]bool{}
		for _, d := range gatedEndToEnd {
			gated[d.Name] = true
			va, vb := sa.e2e[d.Name], sb.e2e[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-22s missing from a report\n", wl.Name, d.Name)
				bad++
				continue
			}
			ratio, v := verdict(d, va, vb)
			if v != "ok" {
				bad++
			}
			row(d.Name, fmt.Sprintf("%.2f", d.Bound), v, ratio)
		}
		// The rest of the full report — the per-workload names and the
		// tails — for the reader; it has no bound and gets no verdict.
		var rest []string
		for name := range sa.e2e {
			if !gated[name] && len(sb.e2e[name]) > 0 {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		for _, name := range rest {
			if base := median(sa.e2e[name]); base != 0 { // fail_ratio is 0 over 0
				row(name, "-", "-", median(sb.e2e[name])/base)
			}
		}
		for _, name := range exactLayer {
			va, vb := sa.layer[name], sb.layer[name]
			if len(va) == 0 && len(vb) == 0 {
				continue // neither report has a traced run
			}
			v := "equal"
			if !allEqual(append(append([]float64(nil), va...), vb...)) || len(va) == 0 || len(vb) == 0 {
				v = "DIFFERENT"
				bad++
			}
			fmt.Fprintf(w, "%-15s %-22s %14s %14s %43s  %s\n", wl.Name, name, list(va), list(vb), "", v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse, unresolved, missing or different", bad)
	}
	return nil
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

// list prints the distinct values of v.
func list(v []float64) string {
	var parts []string
	seen := map[float64]bool{}
	for _, x := range v {
		if !seen[x] {
			seen[x] = true
			parts = append(parts, fmt.Sprintf("%g", x))
		}
	}
	return strings.Join(parts, ",")
}
