package hls_test

import (
	"testing"

	"vital/internal/hls"
	"vital/internal/workload"
)

// BenchmarkSynthesize lowers alexnet-M, the largest cold_compile design,
// to its primitive netlist.
func BenchmarkSynthesize(b *testing.B) {
	spec, err := workload.ParseSpec("alexnet-M")
	if err != nil {
		b.Fatal(err)
	}
	d := workload.BuildDesign(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hls.Synthesize(d); err != nil {
			b.Fatal(err)
		}
	}
}
