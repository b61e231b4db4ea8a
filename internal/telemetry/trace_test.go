package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestTraceParentChild(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("deploy", String("app", "lenet-M"))
	id := root.TraceID()
	a := root.Child("allocate")
	a.End()
	b := root.Child("relocate", Int("blocks", 3))
	b.SetAttr("board", "1")
	b.End()
	root.End()

	td, ok := tr.Get(id)
	if !ok {
		t.Fatalf("trace %q not retrievable after root End", id)
	}
	if td.Name != "deploy" || td.Attrs["app"] != "lenet-M" {
		t.Fatalf("trace summary = %+v", td.TraceSummary)
	}
	if len(td.AllSpans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.AllSpans))
	}
	byName := map[string]SpanData{}
	for _, sp := range td.AllSpans {
		byName[sp.Name] = sp
	}
	rootSpan := byName["deploy"]
	if rootSpan.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", rootSpan.Parent)
	}
	for _, name := range []string{"allocate", "relocate"} {
		if byName[name].Parent != rootSpan.ID {
			t.Fatalf("%s parent = %d, want root %d", name, byName[name].Parent, rootSpan.ID)
		}
	}
	if byName["relocate"].Attrs["blocks"] != "3" || byName["relocate"].Attrs["board"] != "1" {
		t.Fatalf("relocate attrs = %v", byName["relocate"].Attrs)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	var ids []string
	for i := 0; i < 5; i++ {
		sp := tr.Start("op", Int("i", i))
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	for _, id := range ids[:2] {
		if _, ok := tr.Get(id); ok {
			t.Fatalf("evicted trace %q still retrievable", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("recent trace %q missing", id)
		}
	}
	recent := tr.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("Recent(0) = %d traces, want 3", len(recent))
	}
	// Newest first.
	if recent[0].ID != ids[4] || recent[2].ID != ids[2] {
		t.Fatalf("Recent order = %q, want newest first %q..%q", []string{recent[0].ID, recent[1].ID, recent[2].ID}, ids[4], ids[2])
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != ids[4] {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

func TestTracerEvictedCounter(t *testing.T) {
	tr := NewTracer(1)
	if got := tr.Evicted(); got != 0 {
		t.Fatalf("fresh tracer Evicted = %d, want 0", got)
	}
	first := tr.Start("op")
	first.End()
	// Filling the ring is not eviction.
	if got := tr.Evicted(); got != 0 {
		t.Fatalf("Evicted after fill = %d, want 0", got)
	}
	for i := 1; i <= 3; i++ {
		sp := tr.Start("op", Int("i", i))
		sp.End()
		if got := tr.Evicted(); got != uint64(i) {
			t.Fatalf("Evicted after %d overwrites = %d", i, got)
		}
	}
	var nilTr *Tracer
	if got := nilTr.Evicted(); got != 0 {
		t.Fatalf("nil tracer Evicted = %d, want 0", got)
	}
}

func TestMergeTracesPartialDetection(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("submit")
	sc := root.Context()
	root.End()
	seg := tr.StartRemote("deploy.async", sc)
	child := seg.Child("allocate")
	child.End()
	seg.End()

	// Both segments present: the async root's parent resolves, no orphans.
	full, ok := tr.Get(root.TraceID())
	if !ok {
		t.Fatalf("merged trace not retrievable")
	}
	if full.Partial || full.OrphanSpans != 0 {
		t.Fatalf("complete merge marked partial: partial=%v orphans=%d", full.Partial, full.OrphanSpans)
	}
	if strings.Contains(full.Tree(), "partial") {
		t.Fatalf("complete tree labeled partial:\n%s", full.Tree())
	}

	// Drop the rooted segment — as if the ring evicted it. The async
	// segment's root now orphans and the merge has no Parent==0 span.
	var asyncSeg TraceData
	tr.mu.Lock()
	for _, td := range tr.ring.Last(0) {
		for _, sp := range td.AllSpans {
			if sp.Name == "deploy.async" {
				asyncSeg = td
			}
		}
	}
	tr.mu.Unlock()
	partial := MergeTraces([]TraceData{asyncSeg})
	if !partial.Partial || partial.OrphanSpans != 1 {
		t.Fatalf("evicted-parent merge: partial=%v orphans=%d, want true/1", partial.Partial, partial.OrphanSpans)
	}
	tree := partial.Tree()
	if !strings.Contains(tree, "partial: 1 orphaned span(s)") {
		t.Fatalf("partial tree not labeled:\n%s", tree)
	}
	// The orphaned segment still renders — fallback-rooted, not dropped.
	if !strings.Contains(tree, "deploy.async") || !strings.Contains(tree, "allocate") {
		t.Fatalf("partial tree missing spans:\n%s", tree)
	}
}

func TestTracerRecentBeforeWrap(t *testing.T) {
	tr := NewTracer(8)
	a := tr.Start("one")
	a.End()
	b := tr.Start("two")
	b.End()
	recent := tr.Recent(10)
	if len(recent) != 2 || recent[0].Name != "two" || recent[1].Name != "one" {
		t.Fatalf("Recent = %+v, want [two one]", recent)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("noop")
	if sp != nil {
		t.Fatalf("nil tracer returned a live span")
	}
	// Every span method must be callable on nil.
	sp.SetAttr("k", "v")
	child := sp.Child("child")
	if child != nil {
		t.Fatalf("nil span returned a live child")
	}
	child.End()
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q, want empty", got)
	}
	if got := tr.Recent(10); got != nil {
		t.Fatalf("nil tracer Recent = %v, want nil", got)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("compile")
	ctx := ContextWithSpan(context.Background(), root)
	child := StartChild(ctx, "pnr.block", Int("block", 0))
	child.End()
	root.End()
	td, _ := tr.Get(root.TraceID())
	if len(td.AllSpans) != 2 {
		t.Fatalf("got %d spans, want 2", len(td.AllSpans))
	}
	if StartChild(context.Background(), "orphan") != nil {
		t.Fatalf("StartChild without a context span returned a live span")
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("compile")
	var wg sync.WaitGroup
	const workers = 16
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("pnr.block", Int("block", i))
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	td, _ := tr.Get(root.TraceID())
	if len(td.AllSpans) != workers+1 {
		t.Fatalf("got %d spans, want %d", len(td.AllSpans), workers+1)
	}
	seen := map[int64]bool{}
	for _, sp := range td.AllSpans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %d under concurrency", sp.ID)
		}
		seen[sp.ID] = true
	}
}

func TestTraceTreeRendering(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("compile", String("app", "lenet-M"))
	s1 := root.Child("synthesis")
	s1.End()
	s2 := root.Child("local_pnr")
	blk := s2.Child("pnr.block", Int("block", 0))
	blk.End()
	s2.End()
	root.End()
	td, _ := tr.Get(root.TraceID())
	tree := td.Tree()
	for _, want := range []string{"compile", "synthesis", "local_pnr", "pnr.block", "block=0", "app=lenet-M"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// pnr.block nests one level deeper than local_pnr.
	lines := strings.Split(tree, "\n")
	indent := func(name string) int {
		for _, l := range lines {
			if strings.Contains(l, name) {
				return len(l) - len(strings.TrimLeft(l, " "))
			}
		}
		t.Fatalf("tree missing line for %q:\n%s", name, tree)
		return 0
	}
	if indent("pnr.block") <= indent("local_pnr") {
		t.Fatalf("pnr.block not nested under local_pnr:\n%s", tree)
	}
}
