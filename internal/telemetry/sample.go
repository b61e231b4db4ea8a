package telemetry

// Sample is one flat, exposition-shaped sample of the registry: counters
// and gauges yield one sample per series; a histogram expands exactly the
// way the Prometheus text format renders it (see series.expand).
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Samples flattens the registry's current state into exposition-shaped
// samples in deterministic order (families by name, series by label
// signature, buckets by ascending bound) — what the TSDB scrape stores.
func (r *Registry) Samples() []Sample {
	var out []Sample
	point := func(name string, labels []Label, v float64, _ *Exemplar) {
		out = append(out, Sample{Name: name, Labels: labels, Value: v})
	}
	for _, f := range r.walk() {
		for _, s := range f.series {
			s.expand(f.fam.name, point)
		}
	}
	return out
}
