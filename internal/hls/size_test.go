package hls_test

import (
	"testing"

	"vital/internal/hls"
	"vital/internal/workload"
)

// Synthesize allocates the netlist once: every Table 2 design's cells
// exactly, and its nets within 5 % of the count it ends up with.
func TestSynthesizeSizesNetlistOnce(t *testing.T) {
	worst := 0.0
	for _, spec := range workload.AllSpecs() {
		res, err := hls.Synthesize(workload.BuildDesign(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		n := res.Netlist
		if len(n.Cells) != cap(n.Cells) {
			t.Errorf("%s: %d cells in a slice of capacity %d", spec.Name(), len(n.Cells), cap(n.Cells))
		}
		// A net added past the reserved room would have doubled the capacity.
		if float64(cap(n.Nets)) > 1.05*float64(len(n.Nets)) {
			t.Errorf("%s: %d nets in a slice of capacity %d, want within 5 %%", spec.Name(), len(n.Nets), cap(n.Nets))
		}
		worst = max(worst, float64(cap(n.Nets))/float64(len(n.Nets))-1)
		if len(res.Ops) != cap(res.Ops) {
			t.Errorf("%s: %d lowered ops in a slice of capacity %d", spec.Name(), len(res.Ops), cap(res.Ops))
		}
	}
	t.Logf("largest net overshoot: %.2f %%", 100*worst)
}
