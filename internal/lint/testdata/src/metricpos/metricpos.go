// Package metricpos seeds metrichygiene findings. The reg type mimics
// the telemetry Registry's declaration surface; the analyzer matches by
// method name, so no real dependency is needed.
package metricpos

type reg struct{}

func (reg) Counter(name, help string, labels ...int) int   { return 0 }
func (reg) Gauge(name, help string, labels ...int) int     { return 0 }
func (reg) Histogram(name, help string, labels ...int) int { return 0 }

// L mimics the telemetry label constructor.
func L(key, value string) int { return 0 }

// Declare seeds the namespace with one violation per rule.
func Declare(r reg) {
	r.Counter("vital_requests", "Requests served.")        // counter without _total
	r.Gauge("vital_queue_depth_total", "Queue depth.")     // gauge with _total
	r.Histogram("vital_deploy_latency", "Deploy latency.") // histogram without _seconds
	r.Counter("vital_Bad-Name_total", "Mixed case.")       // not snake_case
	r.Gauge("vital_cache_entries", "Entries resident.")
	r.Gauge("vital_cache_entries", "Entries in the cache.") // help drift
	r.Gauge("vital_mode", "Mode.")
	r.Histogram("vital_mode", "Mode.")                                 // kind conflict (and bad suffix)
	r.Counter("vital_widgets_total", "Widgets.", L("flavor", "spicy")) // label key outside the allowlist
	r.Gauge("vital_queue_len", "Queue length.", L("tenant", "alice"))  // tenant off the vital_tenant_* namespace
	r.Counter("vital_tenant_hits_total", "Hits.", L("tenant", "alice"),
		L("shard", "7")) // tenant placement fine, but shard is not reviewed
}

// Scrape references one declared and one undeclared series.
func Scrape() []string {
	return []string{"vital_cache_entries", "vital_missing_series_total"}
}

func (reg) GaugeDesc(name, help string, keys ...string) int   { return 0 }
func (reg) CounterDesc(name, help string, keys ...string) int { return 0 }

// DeclareCollector: a family declared for a collector is checked like any
// other declaration, its label keys being the literals after the help.
func DeclareCollector(r reg) {
	r.GaugeDesc("vital_apps_total", "Apps.", "app")           // gauge with _total
	r.CounterDesc("vital_reads_total", "Reads.", "flavor")    // label key outside the allowlist
	r.CounterDesc("vital_cache_entries", "Entries resident.") // kind conflict with the gauge above (and bad suffix)
}
