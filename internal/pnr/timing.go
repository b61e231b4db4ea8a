package pnr

import (
	"vital/internal/netlist"
)

// Timing analysis over a placed-and-routed block: the critical path is the
// longest register-to-register combinational path, where each hop costs the
// cell's intrinsic delay plus the routed wire delay of the net.

// Cell intrinsic delays in nanoseconds (UltraScale+-class numbers).
var cellDelayNs = map[netlist.Kind]float64{
	netlist.KindLUT:  0.10,
	netlist.KindDFF:  0.08, // clk→Q
	netlist.KindDSP:  0.55,
	netlist.KindBRAM: 0.75,
	netlist.KindIO:   0.00,
}

// TimingResult reports the block's timing closure.
type TimingResult struct {
	CriticalPathNs float64
	FmaxMHz        float64
}

// AnalyzeTiming computes the critical path of the cells covered by the
// placement, using the routing's per-net delays. order is n.TopoOrder()'s
// dataflow order, computed once per netlist and shared by its blocks.
// Sequential cells (DFF, BRAM, DSP) break paths, as in TopoOrder.
func AnalyzeTiming(n *netlist.Netlist, order []netlist.CellID, p *Placement, r *Routing) TimingResult {
	arrival := make([]float64, n.NumCells())
	crit := 0.0
	sequential := func(k netlist.Kind) bool {
		return k == netlist.KindDFF || k == netlist.KindBRAM || k == netlist.KindDSP
	}
	for _, c := range order {
		cell := &n.Cells[c]
		if _, placed := p.SiteOf(c); !placed {
			continue
		}
		at := arrival[c] + cellDelayNs[cell.Kind]
		if at > crit {
			crit = at
		}
		for _, tid := range cell.Out {
			t := &n.Nets[tid]
			wire := r.NetDelay[tid]
			for _, s := range t.Sinks {
				if s == c {
					continue
				}
				// Paths restart at sequential inputs.
				if sequential(cell.Kind) {
					continue
				}
				if v := at + wire; v > arrival[s] {
					arrival[s] = v
				}
			}
		}
	}
	res := TimingResult{CriticalPathNs: crit}
	if crit > 0 {
		res.FmaxMHz = 1e3 / crit
	}
	return res
}
