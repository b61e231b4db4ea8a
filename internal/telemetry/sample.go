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
// signature, buckets by ascending bound) — what the TSDB scrape stores. A
// bucket's labels are the series' labels with le appended last, carved
// from one block per histogram series.
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, f := range r.walk() {
		name, bucket, sum, count := f.fam.name, "", "", ""
		if f.fam.typ == TypeHistogram {
			bucket, sum, count = name+"_bucket", name+"_sum", name+"_count"
		}
		for _, s := range f.series {
			var block []Label
			if s.hist != nil {
				block = make([]Label, 0, len(f.fam.les)*(len(s.labels)+1))
			}
			s.expand(f.fam.les, func(suffix, le string, v float64, _ *Exemplar) {
				smp := Sample{Name: name, Labels: s.labels, Value: v}
				switch suffix {
				case "_bucket":
					at := len(block)
					block = append(append(block, s.labels...), Label{Key: "le", Value: le})
					smp.Name, smp.Labels = bucket, block[at:len(block):len(block)]
				case "_sum":
					smp.Name = sum
				case "_count":
					smp.Name = count
				}
				out = append(out, smp)
			})
		}
	}
	return out
}
