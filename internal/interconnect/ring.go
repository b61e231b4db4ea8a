package interconnect

import "fmt"

// Ring models the shared 100 Gbps bidirectional ring of the evaluation
// platform (Section 5.2). Individual inter-FPGA channels are
// latency-insensitive and correct at any bandwidth, but they *contend* for
// the ring — and a flit consumes bandwidth on *every segment it traverses*,
// so a two-hop channel loads two segments per direction. The arbiter grants
// bandwidth round-robin, so tenants share the ring fairly — another face of
// the performance isolation story.
type Ring struct {
	// BitsPerCycle is the payload each segment can carry per ring clock in
	// each direction (ring bandwidth ÷ ring clock; 100 Gb/s at the
	// 195.3125 MHz channel clock is 512 bits per cycle per direction).
	BitsPerCycle int
	// Segments is the number of board-to-board links on the ring.
	Segments int

	members [][]segRef // per channel: the segment/direction pairs it loads
	chans   []*Channel
	next    int // round-robin pointer
	// budget is Arbitrate's per-cycle scratch, indexed
	// [direction*Segments+segment]: the bits each directed segment can
	// still grant this cycle.
	budget []int
	// Granted counts total flit-grants per direction, for measurement.
	Granted [2]uint64

	// Per-segment contention accounting, indexed [direction][segment]
	// (direction via dirIdx). SegBusyBits accumulates the bits of budget
	// granted on each directed segment; SegDenied counts arbitration
	// refusals charged to the first segment on a path whose remaining
	// budget could not fit the channel width. Cycles counts Arbitrate
	// calls, so SegBusyBits / (Cycles × BitsPerCycle) is a utilization.
	SegBusyBits [2][]uint64
	SegDenied   [2][]uint64
	Cycles      uint64
}

// segRef is one directed ring segment: segment index + direction.
type segRef struct {
	seg int
	cw  bool
}

// RingBitsPerCycle is the platform default: 100 Gb/s per direction at the
// 195.3125 MHz inter-FPGA channel clock = 512 bits per cycle per direction.
const RingBitsPerCycle = 512

// NewRing builds a ring arbiter with the given per-direction, per-segment
// bit budget and segment count (one segment per adjacent board pair; pass
// 1 for a simple shared medium).
func NewRing(bitsPerCycle int) (*Ring, error) {
	return NewSegmentedRing(bitsPerCycle, 1)
}

// NewSegmentedRing builds a ring with per-segment accounting.
func NewSegmentedRing(bitsPerCycle, segments int) (*Ring, error) {
	if bitsPerCycle < 1 {
		return nil, fmt.Errorf("interconnect: ring needs a positive bit budget, got %d", bitsPerCycle)
	}
	if segments < 1 {
		return nil, fmt.Errorf("interconnect: ring needs at least one segment, got %d", segments)
	}
	r := &Ring{BitsPerCycle: bitsPerCycle, Segments: segments}
	for d := 0; d < 2; d++ {
		r.SegBusyBits[d] = make([]uint64, segments)
		r.SegDenied[d] = make([]uint64, segments)
	}
	r.budget = make([]int, 2*segments)
	return r, nil
}

// Attach registers an inter-FPGA channel that traverses segment 0 in the
// given direction (the single-segment convenience form).
func (r *Ring) Attach(c *Channel, clockwise bool) error {
	return r.AttachPath(c, []int{0}, clockwise)
}

// AttachPath registers an inter-FPGA channel that traverses the given
// segments in the given direction. On a ring of N boards, the clockwise
// path from board a to board b covers segments a, a+1, …, b−1 (mod N).
func (r *Ring) AttachPath(c *Channel, segments []int, clockwise bool) error {
	if c.P.Class != InterFPGA {
		return fmt.Errorf("interconnect: only inter-FPGA channels ride the ring, got %v", c.P.Class)
	}
	if c.ring != nil {
		return fmt.Errorf("interconnect: channel already attached to a ring")
	}
	if len(segments) == 0 {
		return fmt.Errorf("interconnect: channel path traverses no segments")
	}
	refs := make([]segRef, len(segments))
	for i, s := range segments {
		if s < 0 || s >= r.Segments {
			return fmt.Errorf("interconnect: segment %d outside ring of %d segments", s, r.Segments)
		}
		refs[i] = segRef{seg: s, cw: clockwise}
	}
	c.ring = r
	c.ringIdx = len(r.chans)
	r.chans = append(r.chans, c)
	r.members = append(r.members, refs)
	return nil
}

// Arbitrate runs once per cycle *before* producers push: it hands out this
// cycle's per-segment bandwidth round-robin among attached channels. A
// channel gets a grant only if every segment on its path has room for its
// width.
func (r *Ring) Arbitrate() {
	r.Cycles++
	for i := range r.budget {
		r.budget[i] = r.BitsPerCycle
	}
	for _, c := range r.chans {
		c.ringGrant = false
	}
	n := len(r.chans)
	for k := 0; k < n; k++ {
		i := (r.next + k) % n
		c := r.chans[i]
		fits := true
		for _, ref := range r.members[i] {
			d := dirIdx(ref.cw)
			if r.budget[d*r.Segments+ref.seg] < c.P.WidthBits {
				// Charge the refusal to the directed segment that ran out
				// of budget — the contention hot spot.
				r.SegDenied[d][ref.seg]++
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for _, ref := range r.members[i] {
			d := dirIdx(ref.cw)
			r.budget[d*r.Segments+ref.seg] -= c.P.WidthBits
			r.SegBusyBits[d][ref.seg] += uint64(c.P.WidthBits)
		}
		c.ringGrant = true
	}
	if n > 0 {
		r.next = (r.next + 1) % n
	}
}

// reset zeroes the arbiter's round-robin pointer and every counter, as
// NewSegmentedRing left them. Attached channels stay attached.
func (r *Ring) reset() {
	r.next = 0
	r.Granted = [2]uint64{}
	for d := range r.SegBusyBits {
		clear(r.SegBusyBits[d])
		clear(r.SegDenied[d])
	}
	r.Cycles = 0
}

// SegmentUtilization returns the fraction of a directed segment's
// cumulative bit budget that arbitration handed out (0 when the ring never
// arbitrated). Granted budget overstates carried payload slightly — a
// granted channel with nothing to send wastes its slot — matching how a
// hardware arbiter reserves the wave.
func (r *Ring) SegmentUtilization(clockwise bool, segment int) float64 {
	if r.Cycles == 0 || segment < 0 || segment >= r.Segments {
		return 0
	}
	return float64(r.SegBusyBits[dirIdx(clockwise)][segment]) / (float64(r.Cycles) * float64(r.BitsPerCycle))
}

func dirIdx(cw bool) int {
	if cw {
		return 1
	}
	return 0
}

// noteGrantUsed records a consumed grant for measurement.
func (r *Ring) noteGrantUsed(c *Channel) {
	r.Granted[dirIdx(r.members[c.ringIdx][0].cw)]++
}

// PathSegments computes the segments a clockwise or counter-clockwise route
// between two boards traverses on a ring of n boards, along with the
// shorter direction. Segment i joins board i and board (i+1) mod n.
func PathSegments(n, from, to int) (segments []int, clockwise bool) {
	if n <= 1 || from == to {
		return nil, true
	}
	cwLen := (to - from + n) % n
	if cwLen <= n-cwLen {
		for s := from; s != to; s = (s + 1) % n {
			segments = append(segments, s)
		}
		return segments, true
	}
	for s := from; s != to; s = (s - 1 + n) % n {
		segments = append(segments, (s-1+n)%n)
	}
	return segments, false
}
