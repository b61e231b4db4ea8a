// Go-runtime self-metrics: goroutine count, heap footprint, and GC pause
// distribution, registered as ordinary vital_go_* families so the TSDB
// scrape loop samples process health alongside the domain series —
// soak/replay curves then show whether a throughput dip was the scheduler
// or the collector.
package telemetry

import (
	"runtime"
	"sync"
)

// gcPauseBuckets spans the pauses a healthy Go collector produces (tens
// of microseconds) up to the pathological ones worth alerting on.
var gcPauseBuckets = []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1}

// RegisterRuntimeMetrics adds the Go runtime's health to reg:
//
//	vital_go_goroutines        live goroutines
//	vital_go_heap_bytes        bytes of live heap (HeapAlloc)
//	vital_go_gc_cycles_total   completed GC cycles
//	vital_go_gc_pause_seconds  stop-the-world pause distribution
//
// Call once per registry, before the scrape loop starts. One collector
// reads MemStats once per walk (ReadMemStats stops the world) and, before
// the walk renders the histogram, drains the MemStats pause ring into it:
// each GC cycle's pause since registration is observed exactly once, so
// the histogram is a true distribution, not a gauge. The ring holds 256
// entries; more than 256 cycles between scrapes loses the oldest, which
// at any sane scrape cadence means the process was not being scraped.
func RegisterRuntimeMetrics(reg *Registry) {
	pauses := reg.Histogram("vital_go_gc_pause_seconds", "Stop-the-world GC pause durations.", gcPauseBuckets)
	goroutines := reg.GaugeDesc("vital_go_goroutines", "Live goroutines.")
	heap := reg.GaugeDesc("vital_go_heap_bytes", "Live heap bytes (HeapAlloc).")
	cycles := reg.CounterDesc("vital_go_gc_cycles_total", "Completed GC cycles.")
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var mu sync.Mutex // guards lastNumGC: walks may run concurrently
	lastNumGC := m.NumGC
	reg.Collect(func(emit Emit) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mu.Lock()
		from := lastNumGC
		if m.NumGC-from > 256 {
			from = m.NumGC - 256
		}
		for i := from; i < m.NumGC; i++ {
			pauses.Observe(float64(m.PauseNs[i%256]) / 1e9)
		}
		lastNumGC = m.NumGC
		mu.Unlock()
		emit(goroutines, float64(runtime.NumGoroutine()))
		emit(heap, float64(m.HeapAlloc))
		emit(cycles, float64(m.NumGC))
	})
}
