// Package metricneg follows every metrichygiene convention: clean.
package metricneg

type reg struct{}

func (reg) Counter(name, help string, labels ...int) int    { return 0 }
func (reg) Gauge(name, help string, labels ...int) int      { return 0 }
func (reg) Histogram(name, help string, labels ...int) int  { return 0 }
func (reg) GaugeDesc(name, help string, keys ...string) int { return 0 }
func (reg) CounterDesc(name, help string, keys ...string) int {
	return 0
}

// L mimics the telemetry label constructor.
func L(key, value string) int { return 0 }

// Declare repeats a declaration with identical kind and help, which the
// labeled-series pattern requires.
func Declare(r reg) {
	r.Counter("vital_frames_total", "Frames moved.")
	r.Counter("vital_frames_total", "Frames moved.")
	r.Gauge("vital_depth", "Current depth.", L("class", "latency"))
	r.Histogram("vital_deploy_seconds", "Deploy latency.")
	// Allowlisted keys, tenant confined to its namespace.
	r.Counter("vital_tenant_requests_total", "Tenant requests.",
		L("tenant", "alice"), L("route", "/submit"), L("code", "200"))
	// Collector-declared families: keys follow the help string.
	r.GaugeDesc("vital_board_used_blocks", "Blocks in use, per board.", "board")
	r.CounterDesc("vital_mem_read_bytes_total", "Bytes read, per app.", "app")
}

// Scrape references declared series, histogram suffixes included.
func Scrape() []string {
	return []string{
		"vital_frames_total",
		"vital_deploy_seconds_bucket",
		"vital_deploy_seconds_sum",
		"vital_deploy_seconds_count",
		"vital_board_used_blocks",
	}
}

// Suppressed keeps a legacy name with a reviewed reason.
func Suppressed(r reg) {
	//lint:ignore metrichygiene fixture: legacy series name kept for dashboard compatibility
	r.Gauge("vital_legacy_total", "Legacy gauge.")
}
