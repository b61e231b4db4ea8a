package sched

import (
	"strconv"
	"sync"
	"sync/atomic"

	"vital/internal/interconnect"
	"vital/internal/telemetry"
)

// Data-plane metrics (DESIGN.md §11): every simulated execution folds its
// interconnect TrafficReport into the controller's registry, so the
// Prometheus exposition carries per-link-class token counters, gated
// back-pressure cycles, effective-vs-peak bandwidth, and per-ring-segment
// contention — the counters AmorphOS and Coyote expose per region, here
// per link class.

// dataPlaneTotals accumulates cross-execution totals the alert rules
// sample (lock-free; RecordTraffic may run concurrently with scrapes), and
// holds the registry handles RecordTraffic updates.
type dataPlaneTotals struct {
	popped      atomic.Uint64
	gatedCycles atomic.Uint64
	chanCycles  atomic.Uint64
	// series is the current handle table. A table is never changed once
	// published; growing it copies it under grow.
	series atomic.Pointer[trafficSeries]
	grow   sync.Mutex
}

// trafficSeries holds RecordTraffic's registry handles, each resolved the
// first time an execution reports its class or ring segment, so an
// execution updates its series without a registry lookup.
type trafficSeries struct {
	classes                          [3]classSeries
	cycles, actorGated, actorFirings *telemetry.Counter
	// segments is indexed 2*segment + direction (1 clockwise); a nil busy
	// handle marks a directed segment no execution has reported yet.
	segments []segmentSeries
}

// classSeries are one link class's series.
type classSeries struct {
	pushed, popped, primed, gated    *telemetry.Counter
	peakOccupancy, effGbps, peakGbps *telemetry.Gauge
}

// segmentSeries are one directed ring segment's series.
type segmentSeries struct {
	busy, denied *telemetry.Counter
	util         *telemetry.Gauge
}

// gatedRatio is the fraction of channel-cycles spent with zero credits —
// the back-pressure stall ratio the channel_gated_ratio_high rule watches.
func (d *dataPlaneTotals) gatedRatio() float64 {
	cycles := d.chanCycles.Load()
	if cycles == 0 {
		return 0
	}
	return float64(d.gatedCycles.Load()) / float64(cycles)
}

// segmentIndex is a directed segment's index in trafficSeries.segments.
func segmentIndex(sg interconnect.SegmentTraffic) int {
	if sg.Clockwise {
		return 2*sg.Segment + 1
	}
	return 2 * sg.Segment
}

// seriesFor returns a handle table covering every directed segment in
// segs, resolving the ones no earlier execution reported.
func (d *dataPlaneTotals) seriesFor(r *telemetry.Registry, segs []interconnect.SegmentTraffic) *trafficSeries {
	if t := d.series.Load(); t != nil && t.covers(segs) {
		return t
	}
	d.grow.Lock()
	defer d.grow.Unlock()
	old := d.series.Load()
	if old != nil && old.covers(segs) {
		return old
	}
	t := &trafficSeries{}
	if old != nil {
		*t = *old
		t.segments = append([]segmentSeries(nil), old.segments...)
	} else {
		t.resolveTotals(r)
	}
	for _, sg := range segs {
		i := segmentIndex(sg)
		if i >= len(t.segments) {
			t.segments = append(t.segments, make([]segmentSeries, i+1-len(t.segments))...)
		}
		if t.segments[i].busy == nil {
			t.segments[i] = resolveSegment(r, sg)
		}
	}
	d.series.Store(t)
	return t
}

// covers reports whether t holds handles for every directed segment in segs.
func (t *trafficSeries) covers(segs []interconnect.SegmentTraffic) bool {
	for _, sg := range segs {
		if i := segmentIndex(sg); i >= len(t.segments) || t.segments[i].busy == nil {
			return false
		}
	}
	return true
}

// resolveTotals resolves the per-class and whole-execution handles.
func (t *trafficSeries) resolveTotals(r *telemetry.Registry) {
	const tokensHelp = "Tokens through latency-insensitive channels by link class and operation (primed tokens are initialization, never pushes)."
	for i := range t.classes {
		lbl := telemetry.L("class", interconnect.LinkClass(i).String())
		t.classes[i] = classSeries{
			pushed:        r.Counter("vital_channel_tokens_total", tokensHelp, lbl, telemetry.L("op", "pushed")),
			popped:        r.Counter("vital_channel_tokens_total", tokensHelp, lbl, telemetry.L("op", "popped")),
			primed:        r.Counter("vital_channel_tokens_total", tokensHelp, lbl, telemetry.L("op", "primed")),
			gated:         r.Counter("vital_channel_gated_cycles_total", "Channel-cycles with zero credits (producer would be clock-gated by back-pressure).", lbl),
			peakOccupancy: r.Gauge("vital_channel_peak_occupancy", "Deepest receive-buffer occupancy seen in the latest execution, by link class.", lbl),
			effGbps:       r.Gauge("vital_channel_effective_gbps", "Delivered payload bandwidth of the latest execution, by link class.", lbl),
			peakGbps:      r.Gauge("vital_channel_peak_gbps", "Theoretical bandwidth of the instantiated channels, by link class.", lbl),
		}
	}
	t.cycles = r.Counter("vital_execute_cycles_total", "Simulated interconnect cycles executed.")
	t.actorGated = r.Counter("vital_actor_gated_cycles_total", "Block-cycles user logic spent clock-gated waiting on the interface.")
	t.actorFirings = r.Counter("vital_actor_firings_total", "Completed dataflow firings across all virtual blocks.")
}

// resolveSegment resolves one directed ring segment's handles.
func resolveSegment(r *telemetry.Registry, sg interconnect.SegmentTraffic) segmentSeries {
	dir := "ccw"
	if sg.Clockwise {
		dir = "cw"
	}
	segLbl := telemetry.L("segment", strconv.Itoa(sg.Segment))
	dirLbl := telemetry.L("dir", dir)
	return segmentSeries{
		busy:   r.Counter("vital_ring_segment_busy_bits_total", "Bits of ring-segment budget granted, per directed segment.", segLbl, dirLbl),
		denied: r.Counter("vital_ring_segment_denied_total", "Arbitration refusals charged to the directed segment that ran out of budget.", segLbl, dirLbl),
		util:   r.Gauge("vital_ring_segment_utilization", "Fraction of the directed segment's bit budget granted in the latest execution.", segLbl, dirLbl),
	}
}

// RecordTraffic folds one execution's data-plane report into the metrics
// registry under the app's name-free, per-class series. The core stack
// calls it after every Execute; tests may call it directly. Classes are
// recorded by their index in rep.Classes, which System.Traffic fills in
// LinkClass order.
func (ct *Controller) RecordTraffic(app string, rep interconnect.TrafficReport) {
	t := ct.dp.seriesFor(ct.Reg, rep.Segments)
	for i := range rep.Classes {
		cl, s := &rep.Classes[i], &t.classes[i]
		s.pushed.Add(cl.Pushed)
		s.popped.Add(cl.Popped)
		s.primed.Add(cl.Primed)
		s.gated.Add(cl.GatedCycles)
		s.peakOccupancy.Set(float64(cl.PeakOccupancy))
		s.effGbps.Set(cl.EffectiveGbps)
		s.peakGbps.Set(cl.PeakGbps)

		ct.dp.popped.Add(cl.Popped)
		ct.dp.gatedCycles.Add(cl.GatedCycles)
		ct.dp.chanCycles.Add(rep.Cycles * uint64(cl.Channels))
	}
	t.cycles.Add(rep.Cycles)
	t.actorGated.Add(rep.ActorGatedCycles)
	t.actorFirings.Add(rep.ActorFirings)
	for _, sg := range rep.Segments {
		s := &t.segments[segmentIndex(sg)]
		s.busy.Add(sg.BusyBits)
		s.denied.Add(sg.Denied)
		s.util.Set(sg.Utilization)
	}
}
