package sched

import (
	"bytes"
	"math/rand/v2"
	"strconv"
	"testing"

	"vital/internal/interconnect"
	"vital/internal/telemetry"
)

// referenceRecordTraffic is RecordTraffic as it was before it resolved its
// handles once: a registry lookup for every series of every report. It is
// the reference the resolved handles must match byte for byte.
func referenceRecordTraffic(r *telemetry.Registry, rep interconnect.TrafficReport) {
	for i := range rep.Classes {
		cl := &rep.Classes[i]
		lbl := telemetry.L("class", cl.ClassStr)
		r.Counter("vital_channel_tokens_total", "Tokens through latency-insensitive channels by link class and operation (primed tokens are initialization, never pushes).", lbl, telemetry.L("op", "pushed")).Add(cl.Pushed)
		r.Counter("vital_channel_tokens_total", "Tokens through latency-insensitive channels by link class and operation (primed tokens are initialization, never pushes).", lbl, telemetry.L("op", "popped")).Add(cl.Popped)
		r.Counter("vital_channel_tokens_total", "Tokens through latency-insensitive channels by link class and operation (primed tokens are initialization, never pushes).", lbl, telemetry.L("op", "primed")).Add(cl.Primed)
		r.Counter("vital_channel_gated_cycles_total", "Channel-cycles with zero credits (producer would be clock-gated by back-pressure).", lbl).Add(cl.GatedCycles)
		r.Gauge("vital_channel_peak_occupancy", "Deepest receive-buffer occupancy seen in the latest execution, by link class.", lbl).Set(float64(cl.PeakOccupancy))
		r.Gauge("vital_channel_effective_gbps", "Delivered payload bandwidth of the latest execution, by link class.", lbl).Set(cl.EffectiveGbps)
		r.Gauge("vital_channel_peak_gbps", "Theoretical bandwidth of the instantiated channels, by link class.", lbl).Set(cl.PeakGbps)
	}
	r.Counter("vital_execute_cycles_total", "Simulated interconnect cycles executed.").Add(rep.Cycles)
	r.Counter("vital_actor_gated_cycles_total", "Block-cycles user logic spent clock-gated waiting on the interface.").Add(rep.ActorGatedCycles)
	r.Counter("vital_actor_firings_total", "Completed dataflow firings across all virtual blocks.").Add(rep.ActorFirings)
	for _, sg := range rep.Segments {
		dir := "ccw"
		if sg.Clockwise {
			dir = "cw"
		}
		segLbl := telemetry.L("segment", strconv.Itoa(sg.Segment))
		dirLbl := telemetry.L("dir", dir)
		r.Counter("vital_ring_segment_busy_bits_total", "Bits of ring-segment budget granted, per directed segment.", segLbl, dirLbl).Add(sg.BusyBits)
		r.Counter("vital_ring_segment_denied_total", "Arbitration refusals charged to the directed segment that ran out of budget.", segLbl, dirLbl).Add(sg.Denied)
		r.Gauge("vital_ring_segment_utilization", "Fraction of the directed segment's bit budget granted in the latest execution.", segLbl, dirLbl).Set(sg.Utilization)
	}
}

// randomTraffic is a report as System.Traffic makes them: every class in
// LinkClass order and every directed segment of a ring of 1 to 64 boards,
// or, one time in four, a sparse seeded subset of the segments.
func randomTraffic(rng *rand.Rand) interconnect.TrafficReport {
	rep := interconnect.TrafficReport{
		Cycles:           rng.Uint64N(1 << 20),
		ActorGatedCycles: rng.Uint64N(1 << 16),
		ActorFirings:     rng.Uint64N(1 << 20),
	}
	for i := range rep.Classes {
		cl := interconnect.LinkClass(i)
		rep.Classes[i] = interconnect.ClassTraffic{
			Class: cl, ClassStr: cl.String(), Channels: rng.IntN(60),
			Pushed: rng.Uint64N(1 << 20), Popped: rng.Uint64N(1 << 20), Primed: rng.Uint64N(200),
			GatedCycles: rng.Uint64N(1 << 12), PeakOccupancy: rng.IntN(130),
			PeakGbps: rng.Float64() * 1e4, EffectiveGbps: rng.Float64() * 1e4,
		}
	}
	segments := []int{1, 4, 64}[rng.IntN(3)]
	sparse := rng.IntN(4) == 0
	for seg := 0; seg < segments; seg++ {
		for d := 0; d < 2; d++ {
			if sparse && rng.IntN(3) != 0 {
				continue
			}
			rep.Segments = append(rep.Segments, interconnect.SegmentTraffic{
				Segment: seg, Clockwise: d == 1,
				BusyBits: rng.Uint64N(1 << 24), Denied: rng.Uint64N(1 << 10), Utilization: rng.Float64(),
			})
		}
	}
	return rep
}

// RecordTraffic's resolved handles leave the registry with the series and
// the exposition bytes the per-report lookups did, after every report of a
// seeded sequence.
func TestRecordTrafficMatchesReference(t *testing.T) {
	ct := NewController(testCluster())
	defer ct.Close()
	ref := telemetry.NewRegistry()
	rng := rand.New(rand.NewPCG(48, 11))
	for i := 0; i < 200; i++ {
		rep := randomTraffic(rng)
		ct.RecordTraffic("app", rep)
		referenceRecordTraffic(ref, rep)
		var got, want bytes.Buffer
		if err := ct.Reg.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if err := ref.WritePrometheus(&want); err != nil {
			t.Fatal(err)
		}
		if g, w := dataPlaneLines(got.Bytes()), dataPlaneLines(want.Bytes()); !bytes.Equal(g, w) {
			t.Fatalf("report %d: exposition differs from the reference:\n got %s\nwant %s", i, g, w)
		}
	}
}

// dataPlaneLines keeps the exposition lines of RecordTraffic's families;
// the controller's registry carries other series too.
func dataPlaneLines(expo []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(expo, []byte("\n")) {
		for _, fam := range []string{"vital_channel_", "vital_execute_cycles_total", "vital_actor_", "vital_ring_segment_"} {
			if bytes.Contains(line, []byte(fam)) {
				out = append(out, line...)
				break
			}
		}
	}
	return out
}
