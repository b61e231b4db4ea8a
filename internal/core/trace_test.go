package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"vital/internal/telemetry"
	"vital/internal/workload"
)

// compileTraced runs one compile and returns its app and the full trace the
// tracer recorded for it.
func compileTraced(t *testing.T, s *Stack, name string, opts CompileOptions) (*CompiledApp, telemetry.TraceData) {
	t.Helper()
	spec, err := workload.ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	app, err := s.CompileWithOptions(context.Background(), workload.BuildDesign(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range s.Controller.Tracer.Recent(0) {
		if ts.Name == "compile" && ts.Attrs["app"] == name {
			td, ok := s.Controller.Tracer.Get(ts.ID)
			if !ok {
				t.Fatalf("trace %s listed but not retrievable", ts.ID)
			}
			return app, td
		}
	}
	t.Fatalf("no compile trace for %q", name)
	return nil, telemetry.TraceData{}
}

// TestCompileTraceBreakdown: compiling a Table 2 application leaves a
// retrievable trace whose stage spans reproduce the Fig. 8 compile-time
// breakdown — with one worker the stage span walls match StageTimes within
// tolerance — and whose per-block spans hang off the parallel stages'
// spans, which hang off the compile root.
func TestCompileTraceBreakdown(t *testing.T) {
	s := NewStack(nil)
	app, td := compileTraced(t, s, "lenet-M", CompileOptions{Workers: 1})

	spans := map[int64]telemetry.SpanData{}
	byName := map[string][]telemetry.SpanData{}
	var root telemetry.SpanData
	for _, sp := range td.AllSpans {
		spans[sp.ID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.Parent == 0 {
			root = sp
		}
	}
	if root.Name != "compile" || root.Attrs["app"] != "lenet-M" || root.Attrs["cache"] != "miss" {
		t.Fatalf("root span = %+v", root)
	}

	// Each Fig. 5 stage appears exactly once, directly under the root, and
	// its span wall matches the StageTimes entry (the span brackets the
	// timer, so it can only be slightly wider).
	stageTimes := map[string]time.Duration{
		"synthesis":     app.Times.Synthesis,
		"partition":     app.Times.Partition,
		"interface_gen": app.Times.InterfaceGen,
		"local_pnr":     app.Times.LocalPNR,
		"relocation":    app.Times.Relocation,
		"global_pnr":    app.Times.GlobalPNR,
	}
	var spanSum time.Duration
	for stage, want := range stageTimes {
		got := byName[stage]
		if len(got) != 1 {
			t.Fatalf("%d %s spans, want 1", len(got), stage)
		}
		if got[0].Parent != root.ID {
			t.Fatalf("%s span parent = %d, want compile root %d", stage, got[0].Parent, root.ID)
		}
		// With Workers:1 the per-block stage times are also wall time, so
		// every stage span must cover its StageTimes entry with only
		// scheduling/pool overhead on top.
		slack := want/5 + 20*time.Millisecond
		if got[0].Duration+slack < want || got[0].Duration > want+slack {
			t.Errorf("%s span duration = %v, StageTimes entry = %v (slack %v)", stage, got[0].Duration, want, slack)
		}
		spanSum += got[0].Duration
	}
	total := app.Times.Total()
	slack := total/5 + 50*time.Millisecond
	if spanSum+slack < total || spanSum > total+slack {
		t.Errorf("stage spans sum to %v, StageTimes.Total() = %v (slack %v)", spanSum, total, slack)
	}

	// The per-block spans of steps 4 and 5 share their stage span as parent
	// (the fan-out shape), one per virtual block.
	localPNR, reloc := byName["local_pnr"][0], byName["relocation"][0]
	if n := len(byName["pnr.block"]); n != app.Blocks() {
		t.Fatalf("%d pnr.block spans, want %d", n, app.Blocks())
	}
	for _, sp := range byName["pnr.block"] {
		if sp.Parent != localPNR.ID {
			t.Fatalf("pnr.block span parent = %d, want local_pnr %d", sp.Parent, localPNR.ID)
		}
	}
	if n := len(byName["relocate.block"]); n != app.Blocks() {
		t.Fatalf("%d relocate.block spans, want %d", n, app.Blocks())
	}
	for _, sp := range byName["relocate.block"] {
		if sp.Parent != reloc.ID {
			t.Fatalf("relocate.block span parent = %d, want relocation %d", sp.Parent, reloc.ID)
		}
	}

	// The compile fed the latency histograms: one miss observation and one
	// observation per stage.
	found := map[string]bool{}
	for _, fam := range s.Controller.Reg.Snapshot() {
		found[fam.Name] = true
	}
	if !found["vital_compile_seconds"] || !found["vital_compile_stage_seconds"] {
		t.Fatalf("compile histograms missing from registry: %v", found)
	}
}

// TestCompileTraceParallelWorkers: with a parallel worker pool the per-block
// spans still nest under their stage span — the trace shows fan-out, not
// orphaned spans.
func TestCompileTraceParallelWorkers(t *testing.T) {
	s := NewStack(nil)
	app, td := compileTraced(t, s, "lenet-M", CompileOptions{Workers: 4, NoCache: true})
	var localPNRID int64
	for _, sp := range td.AllSpans {
		if sp.Name == "local_pnr" {
			localPNRID = sp.ID
		}
	}
	if localPNRID == 0 {
		t.Fatal("no local_pnr span")
	}
	blocks := 0
	for _, sp := range td.AllSpans {
		if sp.Name == "pnr.block" {
			blocks++
			if sp.Parent != localPNRID {
				t.Fatalf("pnr.block parent = %d, want %d", sp.Parent, localPNRID)
			}
		}
	}
	if blocks != app.Blocks() {
		t.Fatalf("%d pnr.block spans, want %d", blocks, app.Blocks())
	}
}

// TestCompileTraceCacheHit: a repeat compile is served from the cache and
// its trace says so — a cache.lookup child with hit=true and a root tagged
// cache=hit, with no stage spans.
func TestCompileTraceCacheHit(t *testing.T) {
	s := NewStack(nil)
	compileTraced(t, s, "lenet-S", CompileOptions{})
	_, td := compileTraced(t, s, "lenet-S", CompileOptions{})
	if td.Attrs["cache"] != "hit" {
		t.Fatalf("repeat compile root attrs = %v, want cache=hit", td.Attrs)
	}
	var sawLookup bool
	for _, sp := range td.AllSpans {
		switch sp.Name {
		case "cache.lookup":
			sawLookup = true
			if sp.Attrs["hit"] != "true" {
				t.Fatalf("cache.lookup attrs = %v", sp.Attrs)
			}
		case "synthesis", "partition", "local_pnr":
			t.Fatalf("cache hit ran stage %s", sp.Name)
		}
	}
	if !sawLookup {
		t.Fatal("no cache.lookup span in cache-hit trace")
	}
}

// TestCompileTraceCountsUnconvergedSolves: every pnr.block span carries its
// block's count of placer solves that stopped at the iteration cap. nin-M
// is a design where some do (blocks 1 and 2), so a dropped count shows.
func TestCompileTraceCountsUnconvergedSolves(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	app, td := compileTraced(t, s, "nin-M", CompileOptions{})
	want := map[string]string{}
	total := 0
	for _, br := range app.Intermediates.BlockResults {
		want[strconv.Itoa(br.Block)] = strconv.Itoa(br.UnconvergedSolves)
		total += br.UnconvergedSolves
	}
	if total == 0 {
		t.Fatal("nin-M counted no unconverged placer solve; it stops three at the iteration cap")
	}
	seen := 0
	for _, sp := range td.AllSpans {
		if sp.Name != "pnr.block" {
			continue
		}
		seen++
		if got := sp.Attrs["unconverged_solves"]; got != want[sp.Attrs["block"]] {
			t.Fatalf("pnr.block %s span: unconverged_solves = %q, BlockResult says %s", sp.Attrs["block"], got, want[sp.Attrs["block"]])
		}
	}
	if seen != app.Blocks() {
		t.Fatalf("%d pnr.block spans, want %d", seen, app.Blocks())
	}
}
