package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesAStall: requests are due every 5 ms; the third one
// stalls for 50 ms. An open-loop generator must charge that wait to the
// requests that came due during the stall — each is timed from when it
// was due, not from when the connection got round to it — where a closed
// loop would have sent them late and timed them short (coordinated
// omission).
func TestOpenLoopChargesAStall(t *testing.T) {
	const (
		gap   = 5 * time.Millisecond
		stall = 50 * time.Millisecond
		n     = 20
	)
	var loop openLoop
	start := time.Now().Add(gap)
	latency := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		loop.at(start.Add(time.Duration(i)*gap), func(due time.Time) {
			if i == 2 {
				time.Sleep(stall)
			}
			latency[i] = time.Since(due)
		})
	}
	loop.runUntil(start.Add(time.Second))
	if len(loop.events) != 0 {
		t.Fatalf("%d events left queued", len(loop.events))
	}
	// Request 2 stalled; requests 3…11 came due during the stall (5 ms
	// apart, 50 ms of stall) and waited out what was left of it.
	for i := 3; i <= 10; i++ {
		left := stall - time.Duration(i-2)*gap
		if latency[i] < left {
			t.Errorf("request %d, due %v into a %v stall, was charged %v; the wait it was owed is %v",
				i, time.Duration(i-2)*gap, stall, latency[i], left)
		}
	}
	// Before the stall and well after it the generator is on time.
	for _, i := range []int{0, 1, n - 1} {
		if latency[i] > stall/2 {
			t.Errorf("request %d was charged %v with no stall near it", i, latency[i])
		}
	}
}

func TestOpenLoopDrainRunsEverythingLeft(t *testing.T) {
	var loop openLoop
	now := time.Now()
	var order []int
	for _, i := range []int{2, 0, 1} {
		i := i
		loop.at(now.Add(time.Duration(i)*time.Hour), func(time.Time) { order = append(order, i) })
	}
	loop.runUntil(now.Add(time.Minute))
	loop.drain()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("ran %v, want [0 1 2]", order)
	}
}

// TestScheduleHashFollowsSeed: the schedule is a function of the seed and
// of nothing else.
func TestScheduleHashFollowsSeed(t *testing.T) {
	gens := map[string]func(seed int64) schedule{
		"churn": func(seed int64) schedule { return churnSchedule(seed, 2, 32, 6, 1000) },
		"sprawl": func(seed int64) schedule {
			return sprawlSchedule(seed, 150, 10*time.Second, 256, 6, 2*time.Second, 6*time.Second)
		},
		"order": func(seed int64) schedule { return orderSchedule("execute_stream", seed, 2, 3, 100) },
	}
	for name, gen := range gens {
		if a, b := gen(7).hash, gen(7).hash; a != b {
			t.Errorf("%s: seed 7 hashed %s then %s", name, a, b)
		}
		if a, b := gen(7).hash, gen(8).hash; a == b {
			t.Errorf("%s: seeds 7 and 8 both hashed %s", name, a)
		}
	}
}

// TestSprawlScheduleNeverReusesALiveName: an instance name comes up again
// only after every other (tenant, design) pair has, which at the
// benchmark's rate is longer than the longest lifetime.
func TestSprawlScheduleNeverReusesALiveName(t *testing.T) {
	sz := full(15 * time.Second)
	sch := sprawlSchedule(1, sz.sprawlRate, 30*time.Second, sz.sprawlTenants, len(sz.churnDesigns), sz.meanLife, sz.capLife)
	type name struct{ tenant, design int }
	ends := map[name]time.Duration{}
	for _, o := range sch.perClient[0] {
		k := name{o.Tenant, o.Design}
		// A second of slack for the session's own steps.
		if end, ok := ends[k]; ok && o.Arrival < end+time.Second {
			t.Fatalf("tenant %d design %d submitted at %v, its last session holds until %v", o.Tenant, o.Design, o.Arrival, end)
		}
		ends[k] = o.Arrival + o.Lifetime
	}
}
