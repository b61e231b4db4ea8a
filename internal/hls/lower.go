package hls

import (
	"fmt"
	"strconv"

	"vital/internal/netlist"
)

// This file is the technology-mapping back half of the front end: it
// expands each operator into a structured macro of primitives (MAC groups
// around DSP slices, BRAM-backed buffers, a control FSM, pipeline glue) and
// wires operators together with bus nets. The expansion materializes each
// operator's resource budget *exactly*, which is what makes netlist-level
// resource estimation precise (the paper's stated reason for partitioning
// at this level).

// Lowered records where an operator's interface cells landed in the
// generated netlist.
type Lowered struct {
	Op OpID
	// InCell receives the control half of inter-op connections (the FSM
	// head); InData receives the data half (the datapath fabric head).
	// Real buses fan into both, so no single-bit chain can isolate an
	// operator's datapath from its inputs. OutCell drives connections.
	InCell, InData, OutCell netlist.CellID
	// Cells is the half-open range [First, Last) of cells generated for
	// this operator (cells are allocated contiguously per op).
	First, Last netlist.CellID
}

// SynthesisResult bundles the generated netlist with the op → cells map.
type SynthesisResult struct {
	Netlist *netlist.Netlist
	Ops     []Lowered
}

// Synthesize lowers a design to a technology-mapped primitive netlist.
// The resulting netlist's resource vector equals the design's total budget
// exactly.
func Synthesize(d *Design) (*SynthesisResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := netlist.New(d.Name)
	n.Grow(synthesisSize(d))
	res := &SynthesisResult{Netlist: n, Ops: make([]Lowered, 0, len(d.Ops))}
	var nm namer
	for _, op := range d.Ops {
		res.Ops = append(res.Ops, lowerOp(n, &nm, &op))
	}
	// Inter-operator connections become bus nets from the producer's
	// output cell into the consumer's control head and datapath.
	for i, c := range d.Conns {
		t := n.AddNet(nm.name(d.Name, "/conn", i), c.Width)
		n.SetDriver(t, res.Ops[c.From].OutCell)
		to := res.Ops[c.To]
		n.AddSink(t, to.InCell)
		if to.InData != to.InCell {
			n.AddSink(t, to.InData)
		}
	}
	if err := n.Check(); err != nil {
		return nil, fmt.Errorf("hls: lowering produced invalid netlist: %w", err)
	}
	return res, nil
}

// synthesisSize returns the exact cell count of d's netlist and an upper
// bound on its net count, so Synthesize allocates both once. Lowering
// materializes each budget exactly, so an operator has one cell per budget
// unit, or one IO pad if its budget is empty. Its nets are at most one per
// cell (chains and PE links), one per weaveStep cells (weave links), one
// per DSP (operand feeds), two per BRAM (read and write buses), the
// broadcast buses and the enable net; the bound counts one more per DSP
// and per BRAM, and every connection adds one net.
func synthesisSize(d *Design) (cells, nets int) {
	for i := range d.Ops {
		b := d.Ops[i].Budget
		c := b.LUTs + b.DFFs + b.DSPs + b.BRAMs
		nets += c + c/weaveStep + 2*b.DSPs + 2*b.BRAMs + broadcastBuses + 2
		cells += max(c, 1)
	}
	return cells, nets + len(d.Conns)
}

// Structural constants of the macro expansion.
const (
	macChainWidth  = 32 // systolic partial-sum width
	bufferBusWidth = 72 // BRAM read/write-port width
	maxCtrlLUTs    = 16 // FSM size carved from the op's LUT budget
	peGroupLUTs    = 16 // operand-select LUTs attached per MAC
	peFeedWidth    = 8  // operand feed from the datapath fabric into a PE

	// Datapath fabric structure: LUTs and DFFs form one serpentine chain
	// (the bit-sliced pipeline), with long-range weave links every
	// weaveStep cells spanning weaveSpan positions. Together with the
	// BRAM anchor nets this makes any cut through an operator's interior
	// far wider than the operator's external streams — real datapaths are
	// dense, and this is what makes the partitioner respect module
	// boundaries.
	weaveStep = 16
	weaveSpan = 997

	// Broadcast buses: every operator with a substantial datapath carries
	// a few wide address/configuration buses whose taps span the whole
	// fabric. Any cut through the interior therefore crosses all of them —
	// as in real accelerators, where address generators reach every lane.
	broadcastBuses    = 4
	broadcastWidth    = 64
	broadcastTaps     = 48
	broadcastMinCells = 200
)

// Deterministic strides that spread each BRAM's anchor points (read-bus
// sinks and write-port source) across the datapath fabric.
var anchorStrides = [...]int{211, 499, 823, 389}

// lowerOp expands a single operator. The budget is honoured exactly: DSPs
// become MAC slices with operand-select LUT groups, BRAMs become buffer
// primitives anchored into the datapath, and the remaining LUTs and DFFs
// form a woven serpentine datapath fabric (the bit-sliced pipeline).
func lowerOp(n *netlist.Netlist, nm *namer, op *Op) Lowered {
	first := netlist.CellID(n.NumCells())
	b := op.Budget
	base := op.Name + "/"
	name := func(part string, i int) string { return nm.name(base, part, i) }

	lutsLeft := b.LUTs

	// Control FSM: a short LUT chain that drives the enable fanout.
	nCtrl := min(lutsLeft, maxCtrlLUTs)
	ctrl := make([]netlist.CellID, 0, nCtrl)
	for i := 0; i < nCtrl; i++ {
		ctrl = append(ctrl, n.AddCell(netlist.KindLUT, name("ctrl", i)))
	}
	lutsLeft -= nCtrl
	chainUp(n, nm, ctrl, op.Name+"/ctrl", 1)

	// MAC array: one DSP per MAC, chained systolically, each with a small
	// operand-select LUT group.
	macs := make([]netlist.CellID, 0, b.DSPs)
	for i := 0; i < b.DSPs; i++ {
		macs = append(macs, n.AddCell(netlist.KindDSP, name("mac", i)))
	}
	chainUp(n, nm, macs, op.Name+"/psum", macChainWidth)
	pePer := 0
	if len(macs) > 0 {
		pePer = min(lutsLeft/len(macs), peGroupLUTs)
	}
	peHeads := make([]netlist.CellID, 0, len(macs))
	for i, m := range macs {
		if pePer == 0 {
			break
		}
		pe := "pe" + strconv.Itoa(i)
		group := make([]netlist.CellID, 0, pePer)
		for j := 0; j < pePer; j++ {
			group = append(group, n.AddCell(netlist.KindLUT, name(pe+"_l", j)))
		}
		lutsLeft -= pePer
		chainUp(n, nm, group, op.Name+"/"+pe+"_op", peFeedWidth)
		t := n.AddNet(op.Name+"/"+pe+"_to_mac", peFeedWidth)
		n.SetDriver(t, group[len(group)-1])
		n.AddSink(t, m)
		peHeads = append(peHeads, group[0])
	}

	// Datapath fabric: the remaining LUTs and all DFFs as one serpentine
	// chain of 1-bit nets, with long-range weave links. This models the
	// operator's bit-sliced pipeline: wide everywhere, so any partition
	// cut through the interior crosses many nets. LUTs and DFFs are
	// interleaved (Bresenham by ratio) so combinational paths stay short,
	// as in a properly pipelined datapath.
	fabric := make([]netlist.CellID, 0, lutsLeft+b.DFFs)
	{
		total := lutsLeft + b.DFFs
		lutsEmitted, dffsEmitted := 0, 0
		acc := 0
		for pos := 0; pos < total; pos++ {
			acc += lutsLeft
			emitLUT := acc >= total
			if emitLUT {
				acc -= total
			}
			// Exhaustion guards keep the counts exact.
			if lutsEmitted == lutsLeft {
				emitLUT = false
			}
			if dffsEmitted == b.DFFs {
				emitLUT = true
			}
			if emitLUT {
				fabric = append(fabric, n.AddCell(netlist.KindLUT, name("dp_l", lutsEmitted)))
				lutsEmitted++
			} else {
				fabric = append(fabric, n.AddCell(netlist.KindDFF, name("dp_r", dffsEmitted)))
				dffsEmitted++
			}
		}
	}
	chainUp(n, nm, fabric, op.Name+"/dp", 1)
	for j := 0; j+weaveSpan < len(fabric); j += weaveStep {
		t := n.AddNet(name("weave", j), 1)
		n.SetDriver(t, fabric[j])
		n.AddSink(t, fabric[j+weaveSpan])
	}

	// Broadcast address/configuration buses tapping the whole fabric.
	if len(fabric) >= broadcastMinCells {
		driver := fabric[0]
		if len(ctrl) > 0 {
			driver = ctrl[len(ctrl)-1]
		}
		for bus := 0; bus < broadcastBuses; bus++ {
			t := n.AddNet(name("bcast", bus), broadcastWidth)
			n.SetDriver(t, driver)
			for tap := 0; tap < broadcastTaps; tap++ {
				idx := (tap*len(fabric)/broadcastTaps + bus*17 + 1) % len(fabric)
				n.AddSink(t, fabric[idx])
			}
		}
	}

	// PE operand groups are fed from spread positions in the fabric.
	for i, head := range peHeads {
		if len(fabric) == 0 {
			break
		}
		src := fabric[(i*617)%len(fabric)]
		t := n.AddNet(op.Name+"/pe"+strconv.Itoa(i)+"_feed", peFeedWidth)
		n.SetDriver(t, src)
		n.AddSink(t, head)
	}

	// Buffers: each BRAM drives a wide read bus into MACs and spread
	// fabric positions, and is written from another fabric position.
	// The anchors tie every buffer into the datapath from four directions,
	// exactly like the address/data ports of a real buffer.
	brams := make([]netlist.CellID, 0, b.BRAMs)
	for i := 0; i < b.BRAMs; i++ {
		brams = append(brams, n.AddCell(netlist.KindBRAM, name("buf", i)))
	}
	for i, bram := range brams {
		rd := n.AddNet(name("rd", i), bufferBusWidth)
		n.SetDriver(rd, bram)
		hasSink := false
		if len(macs) > 0 {
			n.AddSink(rd, macs[(2*i)%len(macs)])
			n.AddSink(rd, macs[(2*i+1)%len(macs)])
			hasSink = true
		}
		if len(fabric) > 0 {
			for _, stride := range anchorStrides[:3] {
				n.AddSink(rd, fabric[(i*stride)%len(fabric)])
			}
			wr := n.AddNet(name("wr", i), bufferBusWidth)
			n.SetDriver(wr, fabric[(i*anchorStrides[3])%len(fabric)])
			n.AddSink(wr, bram)
			hasSink = true
		}
		if !hasSink && len(ctrl) > 0 {
			n.AddSink(rd, ctrl[0])
		}
	}

	// Enable fanout from the control FSM into the datapath.
	if len(ctrl) > 0 {
		targets := make([]netlist.CellID, 0, maxCtrlLUTs)
		for _, m := range macs {
			if len(targets) >= maxCtrlLUTs-2 {
				break
			}
			targets = append(targets, m)
		}
		if len(fabric) > 0 {
			targets = append(targets, fabric[0])
		}
		if len(targets) > 0 {
			t := n.AddNet(op.Name+"/en", 1)
			n.SetDriver(t, ctrl[len(ctrl)-1])
			for _, c := range targets {
				n.AddSink(t, c)
			}
		}
	}

	// Interface cells. Pure I/O operators (zero budget) get an IO pad;
	// everything else enters at the control head and exits at the fabric
	// tail (or MAC/control tail for fabric-less operators).
	lo := Lowered{Op: op.ID, First: first}
	switch {
	case n.NumCells() == int(first):
		pad := n.AddCell(netlist.KindIO, op.Name+"/pad")
		lo.InCell, lo.InData, lo.OutCell = pad, pad, pad
	default:
		lo.InCell = first
		if len(ctrl) > 0 {
			lo.InCell = ctrl[0]
		}
		lo.InData = lo.InCell
		switch {
		case len(fabric) > 0:
			lo.InData = fabric[0]
		case len(macs) > 0:
			lo.InData = macs[0]
		}
		switch {
		case len(fabric) > 0:
			lo.OutCell = fabric[len(fabric)-1]
		case len(macs) > 0:
			lo.OutCell = macs[len(macs)-1]
		case len(ctrl) > 0:
			lo.OutCell = ctrl[len(ctrl)-1]
		default:
			lo.OutCell = netlist.CellID(n.NumCells() - 1)
		}
	}
	lo.Last = netlist.CellID(n.NumCells())
	return lo
}

// chainUp links cells[i] → cells[i+1] with nets of the given width,
// modelling shift registers and systolic chains.
func chainUp(n *netlist.Netlist, nm *namer, cells []netlist.CellID, prefix string, width int) {
	for i := 0; i+1 < len(cells); i++ {
		t := n.AddNet(nm.name(prefix, "_c", i), width)
		n.SetDriver(t, cells[i])
		n.AddSink(t, cells[i+1])
	}
}

// namer renders "<base><part><i>" names in one reused buffer, so each
// generated cell or net name costs one allocation: its own string.
type namer struct{ buf []byte }

func (nm *namer) name(base, part string, i int) string {
	nm.buf = append(append(nm.buf[:0], base...), part...)
	nm.buf = strconv.AppendInt(nm.buf, int64(i), 10)
	return string(nm.buf)
}
