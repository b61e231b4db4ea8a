package interconnect

import "slices"

// This file implements Run's steady-state fast-forward. A latency-
// insensitive system settles, after its pipeline-fill transient, into a
// regime whose state repeats with some period P (Section 3.5.1: once the
// buffers are full, every block fires once per clock). The machine is
// deterministic, so once the state at the end of a cycle equals the state
// P cycles earlier, every following period replays the same firings, the
// same pushes and pops and the same arbitration — until a bounded actor
// runs out of work or the cycle budget runs out. Run therefore simulates
// the transient and one verified period cycle by cycle through StepOnce,
// advances every counter by k periods' worth in one step, and simulates
// the tail cycle by cycle again. The result equals the naive loop's field
// for field; the reference-model test in this package checks that.

// fastForward is Run's steady-state detector. Its buffers are sized once
// per Run, so detection allocates nothing per cycle.
type fastForward struct {
	// saved is the Brent checkpoint's signature, cur the current cycle's.
	saved, cur []uint64
	// snap holds the counters at the start of the period being verified,
	// in System.counters order.
	snap []uint64
	// power is the Brent checkpoint spacing, lam the cycles since the
	// checkpoint was taken.
	power, lam uint64
	// period is the repeat distance being verified, verifying the cycles
	// of it still to step, fired whether any actor fired in them.
	period, verifying uint64
	fired             bool
	// off stops detection for the rest of the Run.
	off bool
}

// init sizes the buffers for s and takes the first checkpoint.
func (f *fastForward) init(s *System) {
	sig, snap := s.signatureWords(), s.counterWords()
	buf := make([]uint64, 2*sig+snap)
	*f = fastForward{saved: buf[:0:sig], cur: buf[sig : sig : 2*sig], snap: buf[2*sig:], power: 1}
	f.saved = s.signature(f.saved)
}

// observe runs after every cycle Run steps; progress is whether an actor
// fired in it and budget the cycles Run may still step.
func (f *fastForward) observe(s *System, progress bool, budget uint64) {
	if f.off {
		return
	}
	if f.verifying > 0 {
		// Verifying: one whole period on the naive path, then check the
		// state came back and something moved. One try per Run: whatever
		// the outcome, the rest runs cycle by cycle.
		f.fired = f.fired || progress
		if f.verifying--; f.verifying > 0 {
			return
		}
		f.off = true
		if f.fired && slices.Equal(s.signature(f.cur[:0]), f.saved) {
			s.skip(f.snap, f.period, budget)
		}
		return
	}
	f.cur = s.signature(f.cur[:0])
	f.lam++
	if slices.Equal(f.cur, f.saved) {
		// The state repeats after lam cycles: verify one more period,
		// measuring what it moves.
		f.period, f.verifying = f.lam, f.lam
		s.counters(f.snap, 0)
		return
	}
	if f.lam == f.power {
		// Brent: move the checkpoint here and double the spacing, so a
		// period of any length is found within a constant factor of the
		// cycles it takes to show up.
		f.saved, f.cur = f.cur, f.saved
		f.power *= 2
		f.lam = 0
	}
}

// signatureWords is the length of the System's signature.
func (s *System) signatureWords() int {
	n := (len(s.Actors)+63)/64 + len(s.Rings)
	for _, c := range s.Channels {
		n += 1 + (len(c.pipe)+63)/64
	}
	return n
}

// signature appends to dst everything that decides the next cycle: per
// actor whether it is Done, per channel its occupancy, credits and wire
// slot valid bits, per ring its round-robin pointer. Counters, token
// payloads and buffer positions are left out: none of them feeds back into
// which actor fires or which channel is granted.
func (s *System) signature(dst []uint64) []uint64 {
	var w uint64
	for i, a := range s.Actors {
		if a.Done() {
			w |= 1 << (i % 64)
		}
		if i%64 == 63 || i == len(s.Actors)-1 {
			dst = append(dst, w)
			w = 0
		}
	}
	for _, c := range s.Channels {
		dst = append(dst, uint64(uint32(c.count))<<32|uint64(uint32(c.credits)))
		for i, slot := range c.pipe {
			if slot.valid {
				w |= 1 << (i % 64)
			}
			if i%64 == 63 || i == len(c.pipe)-1 {
				dst = append(dst, w)
				w = 0
			}
		}
	}
	for _, r := range s.Rings {
		dst = append(dst, uint64(r.next))
	}
	return dst
}

// counterWords is the number of counters a fast-forward advances.
func (s *System) counterWords() int {
	n := 1 + 2*len(s.Actors) + 3*len(s.Channels)
	for _, r := range s.Rings {
		n += 3 + 4*r.Segments
	}
	return n
}

// counters records every counter a fast-forward advances into snap (k ==
// 0), or advances each by k times its growth since snap was recorded.
// Actor.seq is not among them: fire bumps it with fired, so skip moves the
// two together.
func (s *System) counters(snap []uint64, k uint64) {
	i := 0
	visit := func(p *uint64) {
		if k == 0 {
			snap[i] = *p
		} else {
			*p += k * (*p - snap[i])
		}
		i++
	}
	visit(&s.Cycle)
	for _, a := range s.Actors {
		visit(&a.fired)
		visit(&a.Gated)
	}
	for _, c := range s.Channels {
		visit(&c.Pushed)
		visit(&c.Popped)
		visit(&c.FullCycles)
	}
	for _, r := range s.Rings {
		visit(&r.Granted[0])
		visit(&r.Granted[1])
		visit(&r.Cycles)
		for d := range r.SegBusyBits {
			for seg := range r.SegBusyBits[d] {
				visit(&r.SegBusyBits[d][seg])
				visit(&r.SegDenied[d][seg])
			}
		}
	}
}

// skip advances the system by whole periods of the steady state it has
// just verified. snap holds the counters one period ago, so the current
// counters minus snap are what one period moves. budget is the cycles Run
// may still step; the skip stays inside it and leaves every bounded, firing
// actor at least one period of work, so no skipped cycle can see an actor
// turn Done — the one state change a period can hide.
func (s *System) skip(snap []uint64, period, budget uint64) {
	// Actor i's fired count sits at snap[1+2*i] in counters order.
	fired := func(i int) uint64 { return s.Actors[i].fired - snap[1+2*i] }
	k := budget / period
	for i, a := range s.Actors {
		if d := fired(i); a.Work > 0 && d > 0 {
			periods := (a.Work - a.fired) / d
			if periods == 0 {
				return
			}
			k = min(k, periods-1)
		}
	}
	if k == 0 {
		return
	}
	for i, a := range s.Actors {
		if shift := k * fired(i); shift > 0 {
			a.seq += shift
			for _, c := range a.Outs {
				c.renumber(a.seq, shift)
			}
		}
	}
	s.counters(snap, k)
}

// renumber rewrites the tokens in flight before a fast-forward moves the
// channel's stream on by shift tokens, so each holds what the naive loop
// would then: next is the producer's advanced sequence, so the newest
// token in flight carries next-1 and older ones count down from it, except
// that a token old enough to be one of the primed tokens is the primed
// token now shift places further back. A channel has one producer, which
// pushes it on every firing, so its pushes carry consecutive sequences.
func (c *Channel) renumber(next, shift uint64) {
	n := uint64(c.count)
	for _, slot := range c.pipe {
		if slot.valid {
			n++
		}
	}
	w := uint64(0) // position in flight, oldest first
	set := func(t *Token) {
		if c.Popped+shift+w < c.Primed {
			*t = c.fifo[(c.head+int(w+shift))%len(c.fifo)]
		} else {
			*t = seqToken(next - (n - w))
		}
		w++
	}
	for i := 0; i < c.count; i++ {
		set(&c.fifo[(c.head+i)%len(c.fifo)])
	}
	for i := range c.pipe {
		if c.pipe[i].valid {
			set(&c.pipe[i].t)
		}
	}
}
