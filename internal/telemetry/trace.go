package telemetry

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vital/internal/ring"
)

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attr.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attr.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// SpanData is one finished span of a trace. Parent is 0 for a true
// root; a remote-child segment root carries the parent span ID from the
// upstream process, which resolves once the segments merge.
type SpanData struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"` // 0 for the root span
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	// Duration marshals as integer nanoseconds.
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceSummary identifies one recent trace without its span payload.
type TraceSummary struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// Duration marshals as integer nanoseconds.
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Spans    int               `json:"spans"`
}

// TraceData is one complete trace: the root span's identity plus every
// finished span, in end order.
type TraceData struct {
	TraceSummary
	AllSpans []SpanData `json:"all_spans"`
	// Partial marks a merge that is provably missing spans: orphaned
	// parents or no true root. The usual cause is ring eviction (see
	// Tracer.Evicted) or a backend segment the gateway couldn't reach.
	Partial bool `json:"partial,omitempty"`
	// OrphanSpans counts spans whose parent is absent from the merged
	// span set (segment roots whose upstream span is missing).
	OrphanSpans int `json:"orphan_spans,omitempty"`
}

// trace accumulates the spans of one process-local segment of a trace.
// Spans append on End under mu (parallel P&R workers end spans
// concurrently); when the segment root ends, the accumulated spans are
// committed to the tracer's ring. A cross-process trace is several such
// segments sharing one trace ID — Get reassembles them.
type trace struct {
	id     string
	tracer *Tracer

	mu    sync.Mutex
	spans []SpanData
	done  bool
}

// Span is a live (unfinished) span. A nil *Span is a valid no-op receiver:
// call sites instrument unconditionally and pay one nil check when tracing
// is off.
type Span struct {
	t      *trace
	id     int64
	parent int64
	name   string
	start  time.Time
	// root marks the segment root: the span whose End commits the
	// segment. Remote-child segment roots have a nonzero parent (the
	// upstream span), so parent==0 cannot identify them.
	root bool

	mu    sync.Mutex
	attrs map[string]string
}

// Tracer records completed trace segments into a bounded ring (oldest
// evicted first).
type Tracer struct {
	mu   sync.Mutex
	ring *ring.Ring[TraceData]
}

// Evicted reports how many committed segments the ring has overwritten
// since the tracer was created — the vital_trace_evicted_total source. A
// nonzero value means GET /trace/{id} answers may be partial: a
// multi-segment trace can lose its early segments while later ones
// survive.
func (tr *Tracer) Evicted() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.ring.Evicted()
}

// newTraceID returns a random 32-hex-char trace ID. Randomness (rather
// than the PR 4 per-process counter) keeps IDs collision-free when
// segments from several processes merge under one trace.
func newTraceID() string {
	hi, lo := rand.Uint64(), rand.Uint64()
	for hi == 0 && lo == 0 {
		hi, lo = rand.Uint64(), rand.Uint64()
	}
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// newSpanID returns a random nonzero span ID. 63-bit so it survives the
// int64 JSON round trip; random so span IDs from different processes
// never collide within a merged trace.
func newSpanID() int64 {
	for {
		if id := int64(rand.Uint64() >> 1); id != 0 {
			return id
		}
	}
}

// DefaultTraceLimit is the number of recent traces a tracer retains.
const DefaultTraceLimit = 256

// NewTracer returns a tracer retaining up to limit recent traces
// (limit <= 0 selects DefaultTraceLimit).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{ring: ring.New[TraceData](limit)}
}

// Start begins a new trace rooted at a span with the given name. Safe on a
// nil tracer, which returns a nil (no-op) span.
func (tr *Tracer) Start(name string, attrs ...Attr) *Span {
	if tr == nil {
		return nil
	}
	t := &trace{id: newTraceID(), tracer: tr}
	return &Span{t: t, id: newSpanID(), root: true, name: name, start: time.Now(), attrs: attrMap(attrs)}
}

// StartRemote begins a new segment of an existing trace: a root-like
// span that commits independently but carries the caller's trace ID and
// parents itself under the remote span. This is the continuation point
// for both cross-process hops (vitald continuing a vitalgw submit) and
// async boundaries (a queued ticket outliving its HTTP request). An
// invalid context falls back to a fresh root trace.
func (tr *Tracer) StartRemote(name string, sc SpanContext, attrs ...Attr) *Span {
	if tr == nil {
		return nil
	}
	if !sc.Valid() {
		return tr.Start(name, attrs...)
	}
	t := &trace{id: sc.TraceID, tracer: tr}
	return &Span{t: t, id: newSpanID(), parent: sc.SpanID, root: true, name: name, start: time.Now(), attrs: attrMap(attrs)}
}

// StartSpan begins the most-connected span the context allows: a child
// of the context's live span, else a remote child of the context's
// propagated span context, else a fresh root.
func (tr *Tracer) StartSpan(ctx context.Context, name string, attrs ...Attr) *Span {
	if tr == nil {
		return nil
	}
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.Child(name, attrs...)
	}
	if sc, ok := RemoteFromContext(ctx); ok {
		return tr.StartRemote(name, sc, attrs...)
	}
	return tr.Start(name, attrs...)
}

// StartLinked begins a NEW segment linked under the context's span
// identity (live span or propagated context), else a fresh root. Unlike
// StartSpan it never joins the live span's segment — the span it
// returns outlives the request that spawned it (an async ticket crosses
// the HTTP response boundary), so it must commit independently.
func (tr *Tracer) StartLinked(ctx context.Context, name string, attrs ...Attr) *Span {
	if tr == nil {
		return nil
	}
	if sp := SpanFromContext(ctx); sp != nil {
		return tr.StartRemote(name, sp.Context(), attrs...)
	}
	if sc, ok := RemoteFromContext(ctx); ok {
		return tr.StartRemote(name, sc, attrs...)
	}
	return tr.Start(name, attrs...)
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TraceID returns the ID of the span's trace ("" on a nil span).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.t.id
}

// Child begins a sub-span. Safe on a nil span (returns nil).
func (sp *Span) Child(name string, attrs ...Attr) *Span {
	return sp.ChildAt(name, time.Now(), attrs...)
}

// ChildAt begins a sub-span with an explicit start time, for spans whose
// real beginning predates the code observing them — the async worker
// opens the queue.wait span backdated to the ticket's enqueue instant.
func (sp *Span) ChildAt(name string, start time.Time, attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	return &Span{t: sp.t, id: newSpanID(), parent: sp.id, name: name, start: start, attrs: attrMap(attrs)}
}

// Context returns the span's propagatable identity (zero on nil).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.t.id, SpanID: sp.id, Sampled: true}
}

// SetAttr annotates the span. Safe on a nil span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.attrs == nil {
		sp.attrs = make(map[string]string, 1)
	}
	sp.attrs[key] = value
	sp.mu.Unlock()
}

// End finishes the span, recording it into its trace; ending the root span
// commits the whole trace to the tracer's ring. Safe on a nil span; ending
// twice records twice (don't).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.mu.Lock()
	attrs := sp.attrs
	sp.attrs = nil
	sp.mu.Unlock()
	data := SpanData{ID: sp.id, Parent: sp.parent, Name: sp.name, Start: sp.start, Duration: d, Attrs: attrs}
	t := sp.t
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, data)
	}
	if !sp.root {
		t.mu.Unlock()
		return
	}
	t.done = true
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	t.tracer.commit(TraceData{
		TraceSummary: TraceSummary{
			ID: t.id, Name: sp.name, Start: sp.start, Duration: d,
			Attrs: attrs, Spans: len(spans),
		},
		AllSpans: spans,
	})
}

func (tr *Tracer) commit(td TraceData) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ring.Push(td)
}

// Get returns a completed trace by ID. When several segments of the
// trace committed locally (an HTTP request segment plus the async
// ticket segment it spawned), they merge into one span set.
func (tr *Tracer) Get(id string) (TraceData, bool) {
	if tr == nil {
		return TraceData{}, false
	}
	tr.mu.Lock()
	var segs []TraceData
	for _, seg := range tr.ring.Last(0) {
		if seg.ID == id {
			segs = append(segs, seg)
		}
	}
	tr.mu.Unlock()
	if len(segs) == 0 {
		return TraceData{}, false
	}
	return MergeTraces(segs), true
}

// MergeTraces reassembles trace segments (possibly from different
// processes) into one trace. Spans deduplicate by span ID; the summary
// comes from the true root's segment (the one containing a Parent==0
// span), falling back to the earliest-started segment; the merged
// duration covers the whole journey, first span start to last span end.
// Callers guarantee all segments share one trace ID.
func MergeTraces(segs []TraceData) TraceData {
	if len(segs) == 0 {
		return TraceData{}
	}
	summary := segs[0]
	rooted := false
	var spans []SpanData
	seen := map[int64]bool{}
	for _, seg := range segs {
		segRooted := false
		for _, sp := range seg.AllSpans {
			if sp.Parent == 0 {
				segRooted = true
			}
			if !seen[sp.ID] {
				seen[sp.ID] = true
				spans = append(spans, sp)
			}
		}
		if segRooted && !rooted {
			summary, rooted = seg, true
		} else if !rooted && seg.Start.Before(summary.Start) {
			summary = seg
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
	first, last := summary.Start, summary.Start.Add(summary.Duration)
	orphans := 0
	for _, sp := range spans {
		if sp.Start.Before(first) {
			first = sp.Start
		}
		if end := sp.Start.Add(sp.Duration); end.After(last) {
			last = end
		}
		if sp.Parent != 0 && !seen[sp.Parent] {
			orphans++
		}
	}
	return TraceData{
		TraceSummary: TraceSummary{
			ID: summary.ID, Name: summary.Name, Start: first, Duration: last.Sub(first),
			Attrs: summary.Attrs, Spans: len(spans),
		},
		AllSpans:    spans,
		Partial:     orphans > 0 || !rooted,
		OrphanSpans: orphans,
	}
}

// Recent returns summaries of the most recent completed traces, newest
// first, at most max (max <= 0 returns everything retained).
func (tr *Tracer) Recent(max int) []TraceSummary {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	segs := tr.ring.Last(max)
	out := make([]TraceSummary, len(segs))
	for i, seg := range segs {
		out[len(segs)-1-i] = seg.TraceSummary
	}
	return out
}

// ContextWithSpan returns a context carrying the span; workers retrieve it
// with SpanFromContext (or StartChild) to attach fan-out spans to the right
// parent across goroutines.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

type spanCtxKey struct{}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartChild begins a child of the context's span (nil, and a no-op, when
// the context carries none).
func StartChild(ctx context.Context, name string, attrs ...Attr) *Span {
	return SpanFromContext(ctx).Child(name, attrs...)
}

// Tree renders the trace as an indented stage tree — the `vitalctl trace`
// view. Children sort by start time (then span ID) under their parent, so
// the serial stages read top to bottom and parallel fan-out spans group
// under their fan-out parent.
func (td *TraceData) Tree() string {
	known := map[int64]bool{}
	for _, sp := range td.AllSpans {
		known[sp.ID] = true
	}
	children := map[int64][]SpanData{}
	for _, sp := range td.AllSpans {
		parent := sp.Parent
		if !known[parent] {
			// A segment root whose upstream span lives in a process we
			// haven't merged (or was evicted) still renders, as a root.
			parent = 0
		}
		children[parent] = append(children[parent], sp)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool {
			if !cs[i].Start.Equal(cs[j].Start) {
				return cs[i].Start.Before(cs[j].Start)
			}
			return cs[i].ID < cs[j].ID
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans)", td.ID, len(td.AllSpans))
	if td.Partial {
		// Eviction or an unreachable segment left holes: say so instead of
		// rendering a mysteriously contiguous tree.
		fmt.Fprintf(&b, "  [partial: %d orphaned span(s)]", td.OrphanSpans)
	}
	b.WriteByte('\n')
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, sp := range children[parent] {
			b.WriteString(strings.Repeat("  ", depth))
			fmt.Fprintf(&b, "%s  %s", sp.Name, sp.Duration.Round(time.Microsecond))
			for _, k := range sortedKeys(sp.Attrs) {
				fmt.Fprintf(&b, "  %s=%s", k, sp.Attrs[k])
			}
			b.WriteByte('\n')
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 1)
	return b.String()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
