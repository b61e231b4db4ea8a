package core

import (
	"sync"

	"vital/internal/bitstream"
)

// flightGroup coalesces concurrent calls that share a design key onto one
// execution — the singleflight primitive CompileSpec runs each compile
// in, so N callers compiling the same accelerator under N names pay for
// one synthesis. Reimplemented over the stdlib (the module is
// dependency-free): the first caller for a key becomes the leader and
// runs fn; callers arriving while the flight is open block until the
// leader's fn returns.
type flightGroup struct {
	mu sync.Mutex
	m  map[bitstream.CacheKey]*sync.WaitGroup
}

// Do runs fn unless a call for key is already in flight, in which case it
// waits for that call to finish instead. It reports whether this caller
// waited on another caller's flight (false for the leader). The flight
// closes even if fn panics, so a recovered panic does not wedge the key.
func (g *flightGroup) Do(key bitstream.CacheKey, fn func()) (coalesced bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[bitstream.CacheKey]*sync.WaitGroup{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		f.Wait()
		return true
	}
	f := new(sync.WaitGroup)
	f.Add(1)
	g.m[key] = f
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		f.Done()
	}()
	fn()
	return false
}
