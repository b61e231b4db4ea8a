// Package telemetry is the repo's stdlib-only observability layer: the
// instrumentation the ROADMAP's "production-scale system" needs to answer
// latency questions the paper's evaluation asks in aggregate — "what is p99
// deploy latency?" (Fig. 9 is a deployment-latency figure), "where did this
// one slow compile spend its time?" (Fig. 8 is a compile-time breakdown).
//
// It has three parts:
//
//   - Metrics: a Registry of named counters, gauges and fixed-bucket latency
//     histograms (with p50/p90/p99 summaries). Events the instrumented code
//     counts itself go through handles, resolved once and then updated with
//     atomic operations, so instrumenting a hot path costs nanoseconds.
//     State that already lives somewhere (a controller's deployments, a
//     queue's depth) is not mirrored: its owner declares the families
//     (GaugeDesc/CounterDesc) and registers one collector (Collect) that
//     emits every sample the state implies at read time, under one hold of
//     the owner's lock. A per-entity series therefore exists exactly while
//     the entity does; GaugeFunc/CounterFunc are the one-series convenience
//     for fixed, per-process values. One walk reads the registry — families
//     and series pointers copied under the registry lock, handles loaded and
//     collectors run outside it — and Samples, WritePrometheus and Snapshot
//     all render from it, so readers are safe beside writers that create
//     series.
//
//   - Tracing: a Tracer records lightweight spans (parent/child, per-span
//     attrs) into a bounded in-memory ring of recent traces. A nil *Span is
//     a valid no-op receiver, so call sites need no "is tracing on" guards,
//     and spans propagate through context so parallel workers (the per-block
//     P&R pool) attach their fan-out spans to the right parent.
//
//   - Exposition: WritePrometheus renders the registry in the Prometheus
//     text format (version 0.0.4) and ValidateExposition is a strict parser
//     for it — the golden-file CI test and the obssmoke target both use it,
//     so a malformed metric name or a non-monotone histogram fails the
//     build, not the operator's scrape. The writer appends every line into
//     one reused byte buffer (labels insertion-sorted in a stack array,
//     values and escapes appended in place) and hands it to a bufio.Writer
//     in 4 KiB chunks, so a scrape's allocations do not grow with its
//     series. One flattener, series.expand, feeds both it and Samples: its
//     callback gets (suffix, le, value, exemplar), the text writer appends
//     those directly and Samples builds the label slice it stores. A
//     histogram family formats its le strings once, when it is created.
//
// The registry is per-controller; the daemon runs one controller, which
// makes it process-wide in practice while keeping tests isolated.
package telemetry
