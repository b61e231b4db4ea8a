package interconnect

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// naiveRun is Run without the steady-state fast-forward: one StepOnce per
// simulated cycle. It is the reference model Run must match.
func naiveRun(s *System, maxCycles uint64) (uint64, error) {
	start := s.Cycle
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
	}
	return s.Cycle - start, nil
}

// randomSystem builds a random System from seed, together with a cycle
// budget. The same seed always yields the same system. It covers DAGs with
// primed feedback edges, unprimed cycles that deadlock, unbounded actors,
// every link class at widths up to 512 bits, elided and shallow buffers,
// and a segmented ring whose paths share segments.
func randomSystem(seed int64) (*System, uint64) {
	rng := rand.New(rand.NewSource(seed))
	segments := 1 + rng.Intn(4)
	ring, err := NewSegmentedRing(RingBitsPerCycle, segments)
	if err != nil {
		panic(err)
	}
	n := 1 + rng.Intn(6)
	actors := make([]*Actor, n)
	for i := range actors {
		actors[i] = &Actor{Name: fmt.Sprintf("a%d", i)}
		switch r := rng.Intn(10); {
		case r == 0:
			// unbounded
		case r < 3:
			actors[i].Work = uint64(1 + rng.Intn(50))
		default:
			actors[i].Work = uint64(500 + rng.Intn(3000))
		}
	}
	deadlockable := rng.Intn(8) == 0
	var channels []*Channel
	connect := func(src, dst int, feedback bool) {
		class := LinkClass(rng.Intn(3))
		p := DefaultParams(class)
		if rng.Intn(2) == 0 {
			p.WidthBits = 64 * (1 + rng.Intn(8))
		}
		p.LatencyCycles = rng.Intn(p.LatencyCycles + 1)
		switch {
		case class == IntraDie && !feedback && rng.Intn(2) == 0:
			p.FIFODepth = 0 // elided
		default:
			p.FIFODepth = 1 + rng.Intn(p.LatencyCycles+8)
		}
		ch, err := New(p)
		if err != nil {
			panic(err)
		}
		if feedback && !deadlockable {
			if err := ch.Prime(1 + rng.Intn(p.FIFODepth)); err != nil {
				panic(err)
			}
		}
		if class == InterFPGA {
			path, cw := PathSegments(segments, rng.Intn(segments), rng.Intn(segments))
			if len(path) == 0 {
				path, cw = []int{rng.Intn(segments)}, rng.Intn(2) == 0
			}
			if err := ring.AttachPath(ch, path, cw); err != nil {
				panic(err)
			}
		}
		channels = append(channels, ch)
		actors[src].Outs = append(actors[src].Outs, ch)
		actors[dst].Ins = append(actors[dst].Ins, ch)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				connect(i, j, false)
			}
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		j := rng.Intn(n)
		connect(j+rng.Intn(n-j), j, true)
	}
	// Budgets that run out early end mid-period; the rest let the run
	// finish or deadlock.
	maxCycles := uint64(30_000)
	if rng.Intn(4) == 0 {
		maxCycles = uint64(1 + rng.Intn(3000))
	}
	return &System{Actors: actors, Channels: channels, Rings: []*Ring{ring}}, maxCycles
}

// drain pops every token still in c, stepping the wire until it is empty.
func drain(c *Channel) []Token {
	var out []Token
	for {
		for c.CanPop() {
			t, _ := c.Pop()
			out = append(out, t)
		}
		inFlight := false
		for _, s := range c.pipe {
			inFlight = inFlight || s.valid
		}
		if !inFlight {
			return out
		}
		c.Step()
	}
}

// systemState is everything observable about a System after a run.
type systemState struct {
	Cycle      uint64
	IdleStreak int
	Traffic    TrafficReport
	Actors     [][3]uint64 // fired, seq, Gated
	Channels   []channelState
	Rings      []ringState
}

type channelState struct {
	Pushed, Popped, Primed, FullCycles uint64
	PeakOccupancy, Occupancy, Credits  int
	Tokens                             []Token
}

type ringState struct {
	Next                   int
	Granted                [2]uint64
	SegBusyBits, SegDenied [2][]uint64
	Cycles                 uint64
}

func capture(s *System) systemState {
	st := systemState{Cycle: s.Cycle, IdleStreak: s.idleStreak, Traffic: s.Traffic()}
	for _, a := range s.Actors {
		st.Actors = append(st.Actors, [3]uint64{a.fired, a.seq, a.Gated})
	}
	for _, r := range s.Rings {
		st.Rings = append(st.Rings, ringState{Next: r.next, Granted: r.Granted,
			SegBusyBits: r.SegBusyBits, SegDenied: r.SegDenied, Cycles: r.Cycles})
	}
	for _, c := range s.Channels {
		st.Channels = append(st.Channels, channelState{
			Pushed: c.Pushed, Popped: c.Popped, Primed: c.Primed, FullCycles: c.FullCycles,
			PeakOccupancy: c.PeakOccupancy, Occupancy: c.count, Credits: c.credits,
			Tokens: drain(c),
		})
	}
	return st
}

// TestRunMatchesNaiveLoop is the fast-forward's reference-model check:
// on random systems, Run returns the cycle count and error the
// cycle-by-cycle loop does, and leaves every counter, every traffic figure
// and every token still in flight exactly where that loop does.
func TestRunMatchesNaiveLoop(t *testing.T) {
	var deadlocks, budgetHit, finished int
	for seed := int64(0); seed < 600; seed++ {
		want, wantMax := randomSystem(seed)
		got, _ := randomSystem(seed)
		wantN, wantErr := naiveRun(want, wantMax)
		gotN, gotErr := got.Run(wantMax)
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: Run = %d, %v; naive loop = %d, %v", seed, gotN, gotErr, wantN, wantErr)
		}
		if g, w := capture(got), capture(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: state after Run differs from the naive loop:\n got %+v\nwant %+v", seed, g, w)
		}
		var dl *ErrDeadlock
		switch {
		case errors.As(wantErr, &dl):
			deadlocks++
		case wantN == wantMax:
			budgetHit++
		default:
			finished++
		}
	}
	// The generator has to reach every way a run can end.
	if deadlocks == 0 || budgetHit == 0 || finished == 0 {
		t.Fatalf("coverage: %d deadlocks, %d budget-limited, %d finished", deadlocks, budgetHit, finished)
	}
}

// TestRunFastForwardsLongRuns: a run of 2^40 firings, far beyond what
// stepping every cycle could finish, completes with the counts the
// pipeline's latency dictates.
func TestRunFastForwardsLongRuns(t *testing.T) {
	const work = 1 << 40
	die, _ := New(DefaultParams(InterDie))
	fpga, _ := New(DefaultParams(InterFPGA))
	ring, _ := NewRing(RingBitsPerCycle)
	if err := ring.Attach(fpga, true); err != nil {
		t.Fatal(err)
	}
	src := &Actor{Name: "src", Outs: []*Channel{die}, Work: work}
	mid := &Actor{Name: "mid", Ins: []*Channel{die}, Outs: []*Channel{fpga}, Work: work}
	dst := &Actor{Name: "dst", Ins: []*Channel{fpga}, Work: work}
	sys := &System{Actors: []*Actor{src, mid, dst}, Channels: []*Channel{die, fpga}, Rings: []*Ring{ring}}
	cycles, err := sys.Run(2 * work)
	if err != nil {
		t.Fatal(err)
	}
	// Every actor fires once per cycle once its input arrives, so the
	// sink finishes after the work plus both flight latencies.
	lat := uint64(die.P.LatencyCycles + fpga.P.LatencyCycles)
	if cycles != work+lat || dst.Fired() != work || fpga.Popped != work {
		t.Fatalf("cycles %d, sink fired %d, popped %d; want %d, %d, %d", cycles, dst.Fired(), fpga.Popped, work+lat, work, work)
	}
	if src.Gated != 0 || mid.Gated != uint64(die.P.LatencyCycles) || dst.Gated != lat {
		t.Fatalf("gated src %d mid %d dst %d", src.Gated, mid.Gated, dst.Gated)
	}
}

// TestResetMatchesFresh is Reset's reference-model check: on random
// systems, a system run to any end (finished, budget-limited or
// deadlocked), reset and run again returns what a freshly built copy does
// and ends in its state — counters, traffic and tokens in flight — also
// after a second reuse.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		reused, maxCycles := randomSystem(seed)
		if _, err := reused.Run(maxCycles); err != nil && !errors.As(err, new(*ErrDeadlock)) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for round := 1; round <= 2; round++ {
			reused.Reset()
			fresh, _ := randomSystem(seed)
			gotN, gotErr := reused.Run(maxCycles)
			wantN, wantErr := fresh.Run(maxCycles)
			if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d round %d: reused Run = %d, %v; fresh = %d, %v", seed, round, gotN, gotErr, wantN, wantErr)
			}
			// capture drains the channels; the next round's Reset has to
			// undo that too.
			if g, w := capture(reused), capture(fresh); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d round %d: reused state differs from fresh:\n got %+v\nwant %+v", seed, round, g, w)
			}
		}
	}
}
