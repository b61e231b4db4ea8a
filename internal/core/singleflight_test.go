package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vital/internal/bitstream"
)

func TestFlightGroupCoalesces(t *testing.T) {
	const followers = 31
	var g flightGroup
	var calls, done atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})

	type result struct {
		coalesced bool
		// doneSeen is how many leader calls had finished when Do returned.
		doneSeen int64
	}
	results := make(chan result, followers+1)
	do := func() {
		co := g.Do(bitstream.CacheKey{1}, func() {
			calls.Add(1)
			close(entered)
			<-release
			done.Add(1)
		})
		results <- result{co, done.Load()}
	}

	go do()
	<-entered // the leader is inside fn; the flight is open
	var started sync.WaitGroup
	for i := 0; i < followers; i++ {
		started.Add(1)
		go func() {
			started.Done()
			do()
		}()
	}
	started.Wait()
	// Give the followers a beat to reach the flight's WaitGroup, then let
	// the leader finish.
	time.Sleep(100 * time.Millisecond)
	close(release)

	var coalesced int
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.doneSeen != 1 {
			t.Fatalf("result %d returned before the leader's fn finished", i)
		}
		if r.coalesced {
			coalesced++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", got, followers+1)
	}
	if coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", coalesced, followers)
	}
}

func TestFlightGroupDistinctKeysRunIndependently(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(bitstream.CacheKey{byte(i)}, func() { calls.Add(1) })
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("fn ran %d times across 4 distinct keys, want 4", got)
	}
	// A second flight for a completed key runs again (the group coalesces
	// in-flight work, it is not a cache).
	co := g.Do(bitstream.CacheKey{0}, func() { calls.Add(1) })
	if co || calls.Load() != 5 {
		t.Fatalf("repeat after completion: coalesced=%v calls=%d, want false, 5", co, calls.Load())
	}
}

// A leader whose fn panics still closes its flight: the next caller for
// the key leads a flight of its own instead of waiting forever.
func TestFlightGroupClosesOnPanic(t *testing.T) {
	var g flightGroup
	func() {
		defer func() { _ = recover() }()
		g.Do(bitstream.CacheKey{7}, func() { panic("compile blew up") })
	}()
	ran := false
	if co := g.Do(bitstream.CacheKey{7}, func() { ran = true }); co || !ran {
		t.Fatalf("after a panicked flight: coalesced=%v ran=%v, want false, true", co, ran)
	}
}
