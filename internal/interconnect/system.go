package interconnect

import "fmt"

// Actor is a piece of user logic in a virtual block, modeled as a dataflow
// node: it fires when every input channel has a token and every output
// channel accepts one. The latency-insensitive control logic clock-gates
// the actor otherwise (Section 3.2: "a clock enable signal is generated by
// this interface to clock-gate user logic when no input data is available").
type Actor struct {
	Name string
	// Ins and Outs are the channels the actor consumes/produces.
	Ins  []*Channel
	Outs []*Channel
	// Work is the number of firings this actor performs before completing
	// (zero means unbounded).
	Work uint64

	fired uint64
	seq   uint64
	Gated uint64 // cycles spent clock-gated
}

// Done reports whether a bounded actor has completed its work.
func (a *Actor) Done() bool { return a.Work > 0 && a.fired >= a.Work }

// Fired returns the number of firings so far.
func (a *Actor) Fired() uint64 { return a.fired }

// ready reports whether the actor can fire this cycle: all inputs
// available, all outputs willing.
func (a *Actor) ready() bool {
	if a.Done() {
		return false
	}
	for _, in := range a.Ins {
		if !in.CanPop() {
			return false
		}
	}
	for _, out := range a.Outs {
		if !out.CanPush() {
			return false
		}
	}
	return true
}

// fire consumes one token per input and produces one per output.
func (a *Actor) fire() error {
	for _, in := range a.Ins {
		if _, ok := in.Pop(); !ok {
			return fmt.Errorf("interconnect: actor %s fired with empty input", a.Name)
		}
	}
	for _, out := range a.Outs {
		if err := out.Push(seqToken(a.seq)); err != nil {
			return fmt.Errorf("interconnect: actor %s: %w", a.Name, err)
		}
	}
	a.seq++
	a.fired++
	return nil
}

// seqToken is the token an actor pushes on its seq-th firing.
func seqToken(seq uint64) Token { return Token{Seq: seq, Payload: seq} }

// System is a set of actors connected by channels — one deployed
// application spanning one or more FPGAs. Every channel an actor uses is
// listed in Channels, and at most one actor pushes into each.
type System struct {
	Actors   []*Actor
	Channels []*Channel
	// Rings lists shared-medium arbiters to run each cycle (optional).
	Rings []*Ring

	// Cycle is the current cycle number.
	Cycle uint64
	// idleStreak counts consecutive cycles without any firing while
	// tokens remain pending, for deadlock detection.
	idleStreak int
	// ffBuf backs Run's fast-forward buffers.
	ffBuf []uint64
}

// DeadlockThreshold is the number of consecutive no-progress cycles (with
// data pending and actors unfinished) after which Run declares a deadlock.
// It exceeds any legitimate stall: the longest flight latency plus the
// deepest buffer drain.
const DeadlockThreshold = 4096

// ErrDeadlock reports a detected deadlock: no actor can fire although work
// remains. The paper's interface avoids this by construction — buffers are
// initialized so at least one input buffer is non-empty (Section 3.5.1).
type ErrDeadlock struct {
	Cycle uint64
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("interconnect: deadlock detected at cycle %d: no progress with work pending", e.Cycle)
}

// StepOnce advances the system one cycle: arbitrate shared media, fire
// every ready actor, then advance every channel.
func (s *System) StepOnce() (progress bool, err error) {
	for _, r := range s.Rings {
		r.Arbitrate()
	}
	for _, a := range s.Actors {
		if a.ready() {
			if err := a.fire(); err != nil {
				return false, err
			}
			progress = true
		} else if !a.Done() {
			a.Gated++
		}
	}
	for _, c := range s.Channels {
		c.Step()
	}
	s.Cycle++
	return progress, nil
}

// pending reports whether any bounded actor has work left. Residual tokens
// in channels (e.g. from initialization priming) do not count as work.
func (s *System) pending() bool {
	for _, a := range s.Actors {
		if a.Work > 0 && !a.Done() {
			return true
		}
	}
	return false
}

// Run advances the system until all bounded actors complete, the cycle
// budget is exhausted, or a deadlock/protocol violation is detected.
// It returns the number of cycles executed.
//
// Once the system's state repeats, Run verifies one period and skips ahead
// by whole periods (fastforward.go); the result — cycles, error, every
// counter and every token still in flight — is the one stepping each cycle
// would give.
func (s *System) Run(maxCycles uint64) (uint64, error) {
	start := s.Cycle
	var ff fastForward
	ff.init(s)
	for s.Cycle-start < maxCycles {
		if !s.pending() {
			break
		}
		progress, err := s.StepOnce()
		if err != nil {
			return s.Cycle - start, err
		}
		if progress {
			s.idleStreak = 0
		} else {
			s.idleStreak++
			if s.idleStreak > DeadlockThreshold && s.pending() {
				return s.Cycle - start, &ErrDeadlock{Cycle: s.Cycle}
			}
		}
		ff.observe(s, progress, maxCycles-(s.Cycle-start))
	}
	return s.Cycle - start, nil
}

// Reset puts a system that has run back in the state it was built in, so
// it can run again instead of being rebuilt: every actor's firings, token
// sequence and gated cycles, every channel's wire, buffer, credits and
// counters, every ring's round-robin pointer and counters, and the cycle
// count go back to zero, and each channel is primed again with as many
// tokens as it held before it first ran. Actors keep their Work; set it
// before the next Run.
func (s *System) Reset() {
	for _, a := range s.Actors {
		a.fired, a.seq, a.Gated = 0, 0, 0
	}
	for _, c := range s.Channels {
		c.reset()
	}
	for _, r := range s.Rings {
		r.reset()
	}
	s.Cycle, s.idleStreak = 0, 0
}

// AllDone reports whether every bounded actor completed.
func (s *System) AllDone() bool {
	for _, a := range s.Actors {
		if a.Work > 0 && !a.Done() {
			return false
		}
	}
	return true
}
