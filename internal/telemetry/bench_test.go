package telemetry

import (
	"fmt"
	"io"
	"testing"
)

// gatewayRegistry builds a registry shaped like the admission gateway's
// with the given number of configured tenants. Per tenant: RED counters
// over three routes, a DefBuckets latency histogram with exemplars, an SLO
// budget gauge, and a burn-rate gauge plus an alert-state gauge per burn
// window — the gauges as one-series collectors, as the gateway registers
// them. Per-route HTTP histograms and counters complete the shape. At 256
// tenants it renders about 8 000 exposition lines.
func gatewayRegistry(tenants int) *Registry {
	r := NewRegistry()
	routes := []string{"/submit", "/status", "/undeploy"}
	for i := 0; i < tenants; i++ {
		tn := fmt.Sprintf("tenant-%03d", i)
		for j, route := range routes {
			r.Counter("vital_tenant_requests_total", "Tenant-facing requests by tenant, route and status code.",
				L("tenant", tn), L("route", route), L("code", "200")).Add(uint64(3*i + j + 1))
		}
		h := r.Histogram("vital_tenant_latency_seconds", "Tenant-facing request latency by tenant.", nil, L("tenant", tn))
		for k := 0; k < 8; k++ {
			v := 2e-5 * float64(int(1)<<(2*k))
			h.ObserveExemplar(v, fmt.Sprintf("%016x%016x", i, k))
		}
		budget := 1 - float64(i)/float64(tenants)
		r.GaugeFunc("vital_tenant_slo_budget_remaining", "Fraction of the tenant's rolling error budget remaining.",
			func() float64 { return budget }, L("tenant", tn))
		for _, window := range []string{"fast", "slow"} {
			r.GaugeFunc("vital_tenant_slo_burn_rate", "Effective burn rate per rule.",
				func() float64 { return 0.25 }, L("tenant", tn), L("window", window))
			r.GaugeFunc("vital_alert_state", "Alert-rule state: 0 inactive, 1 pending, 2 firing.",
				func() float64 { return 0 }, L("rule", "slo_"+tn+"_"+window))
		}
	}
	for _, route := range append(routes, "/metrics", "/healthz", "/slo", "/query") {
		h := r.Histogram("vital_http_request_seconds", "HTTP request latency by route.", DefBuckets, L("route", route))
		h.Observe(3e-4)
		h.Observe(2e-3)
		r.Counter("vital_http_requests_total", "HTTP requests by route and status code.",
			L("route", route), L("code", "200")).Add(2)
	}
	return r
}

// BenchmarkWritePrometheus renders the 256-tenant gateway-shaped registry
// in the text format: the per-scrape cost of GET /metrics?format=prometheus.
func BenchmarkWritePrometheus(b *testing.B) {
	r := gatewayRegistry(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamples flattens the same registry into the samples a TSDB
// scrape stores.
func BenchmarkSamples(b *testing.B) {
	r := gatewayRegistry(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Samples()) == 0 {
			b.Fatal("no samples")
		}
	}
}
