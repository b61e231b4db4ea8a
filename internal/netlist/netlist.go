// Package netlist defines the primitive-level intermediate representation
// shared by the whole ViTAL stack. A Netlist is a bipartite graph of cells
// (technology-mapped primitives such as LUTs, flip-flops, DSP slices and
// block RAMs) and nets (the wires connecting them). It is the output of the
// synthesis front end (internal/hls), the input of the partitioner
// (internal/partition) and of place-and-route (internal/pnr).
//
// The paper partitions applications at the netlist level (Section 3.3)
// because a netlist is language independent and gives accurate low-level
// resource estimates; this package is the concrete realization of that
// design decision.
package netlist

import (
	"fmt"
	"sort"
)

// Kind identifies the primitive type of a cell.
type Kind uint8

// Primitive kinds. The set mirrors the resource classes of a Xilinx
// UltraScale+ device as used in the paper's Table 2 and Table 4.
const (
	// KindLUT is a 6-input look-up table implementing arbitrary logic.
	KindLUT Kind = iota
	// KindDFF is a D flip-flop (register).
	KindDFF
	// KindDSP is a DSP48-style hard multiply-accumulate slice.
	KindDSP
	// KindBRAM is a 36 Kb block RAM.
	KindBRAM
	// KindIO is a top-level input/output pad of the design.
	KindIO
	numKinds
)

// BRAMKb is the capacity in kilobits of a single KindBRAM primitive.
const BRAMKb = 36

// String returns the conventional short name of the kind.
func (k Kind) String() string {
	switch k {
	case KindLUT:
		return "LUT"
	case KindDFF:
		return "DFF"
	case KindDSP:
		return "DSP"
	case KindBRAM:
		return "BRAM"
	case KindIO:
		return "IO"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CellID indexes a cell within a Netlist. IDs are dense: the cell with
// CellID i is Netlist.Cells[i].
type CellID int32

// NetID indexes a net within a Netlist, dense like CellID.
type NetID int32

// NoCell marks the absence of a cell, e.g. the driver of a primary input.
const NoCell CellID = -1

// NoNet marks an unconnected pin.
const NoNet NetID = -1

// Cell is a single technology-mapped primitive.
type Cell struct {
	ID   CellID
	Kind Kind
	// Name is a hierarchical instance name, e.g. "conv1/pe3/mac".
	Name string
	// In lists the nets driving this cell's input pins.
	In []NetID
	// Out lists the nets this cell drives (usually exactly one).
	Out []NetID
}

// Net is a wire (or a bus, when Width > 1) connecting one driver to any
// number of sinks. Bus nets keep generated netlists compact: a 64-bit data
// path between two pipeline stages is one Net with Width 64 rather than 64
// parallel single-bit nets. All connectivity-sensitive algorithms weight a
// net by its Width.
type Net struct {
	ID     NetID
	Name   string
	Driver CellID // NoCell for primary inputs
	Sinks  []CellID
	Width  int // bits carried; >= 1
}

// Dir is the direction of a top-level port.
type Dir uint8

// Port directions.
const (
	DirIn Dir = iota
	DirOut
)

// Port is a top-level interface pin of the design.
type Port struct {
	Name  string
	Net   NetID
	Dir   Dir
	Width int
}

// Netlist is a complete technology-mapped design.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net
	Ports []Port
}

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// Grow makes room for at least cells more cells and nets more nets, so
// that many AddCell and AddNet calls do not reallocate, in the style of
// slices.Grow. Unlike slices.Grow it leaves the capacity exact, so a
// builder that knows its final size wastes nothing. It panics if either
// count is negative.
func (n *Netlist) Grow(cells, nets int) {
	n.Cells = grow(n.Cells, cells)
	n.Nets = grow(n.Nets, nets)
}

func grow[E any](s []E, k int) []E {
	if k < 0 {
		panic("netlist: Grow count cannot be negative")
	}
	if cap(s)-len(s) >= k {
		return s
	}
	g := make([]E, len(s), len(s)+k)
	copy(g, s)
	return g
}

// AddCell appends a cell of the given kind and returns its ID.
func (n *Netlist) AddCell(kind Kind, name string) CellID {
	id := CellID(len(n.Cells))
	n.Cells = append(n.Cells, Cell{ID: id, Kind: kind, Name: name})
	return id
}

// AddNet appends a net of the given width and returns its ID.
// Widths below 1 are clamped to 1.
func (n *Netlist) AddNet(name string, width int) NetID {
	if width < 1 {
		width = 1
	}
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{ID: id, Name: name, Driver: NoCell, Width: width})
	return id
}

// SetDriver records cell c as the driver of net t and adds t to the cell's
// output pin list. It panics if the net already has a driver, mirroring the
// single-driver rule of synthesized hardware.
func (n *Netlist) SetDriver(t NetID, c CellID) {
	net := &n.Nets[t]
	if net.Driver != NoCell {
		panic(fmt.Sprintf("netlist: net %q already driven by cell %d", net.Name, net.Driver))
	}
	net.Driver = c
	cell := &n.Cells[c]
	cell.Out = append(cell.Out, t)
}

// AddSink connects net t to an input pin of cell c.
func (n *Netlist) AddSink(t NetID, c CellID) {
	net := &n.Nets[t]
	net.Sinks = append(net.Sinks, c)
	cell := &n.Cells[c]
	cell.In = append(cell.In, t)
}

// AddPort declares a top-level port attached to net t.
func (n *Netlist) AddPort(name string, t NetID, dir Dir, width int) {
	n.Ports = append(n.Ports, Port{Name: name, Net: t, Dir: dir, Width: width})
}

// NumCells returns the number of cells.
func (n *Netlist) NumCells() int { return len(n.Cells) }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.Nets) }

// CountKind returns the number of cells of the given kind.
func (n *Netlist) CountKind(k Kind) int {
	c := 0
	for i := range n.Cells {
		if n.Cells[i].Kind == k {
			c++
		}
	}
	return c
}

// Resources tallies the resource usage of the whole netlist.
func (n *Netlist) Resources() Resources {
	var r Resources
	for i := range n.Cells {
		r.AddCell(n.Cells[i].Kind)
	}
	return r
}

// Check validates structural invariants: every pin reference is in range,
// every net's driver/sink lists agree with the cells' pin lists, and every
// net has at most one driver. It returns the first violation found.
func (n *Netlist) Check() error {
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.ID != CellID(i) {
			return fmt.Errorf("netlist %s: cell %d has mismatched ID %d", n.Name, i, c.ID)
		}
		for _, t := range c.In {
			if t < 0 || int(t) >= len(n.Nets) {
				return fmt.Errorf("netlist %s: cell %q input net %d out of range", n.Name, c.Name, t)
			}
			if !containsCell(n.Nets[t].Sinks, c.ID) {
				return fmt.Errorf("netlist %s: cell %q lists net %q as input but is not a sink", n.Name, c.Name, n.Nets[t].Name)
			}
		}
		for _, t := range c.Out {
			if t < 0 || int(t) >= len(n.Nets) {
				return fmt.Errorf("netlist %s: cell %q output net %d out of range", n.Name, c.Name, t)
			}
			if n.Nets[t].Driver != c.ID {
				return fmt.Errorf("netlist %s: cell %q lists net %q as output but is not its driver", n.Name, c.Name, n.Nets[t].Name)
			}
		}
	}
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.ID != NetID(i) {
			return fmt.Errorf("netlist %s: net %d has mismatched ID %d", n.Name, i, t.ID)
		}
		if t.Width < 1 {
			return fmt.Errorf("netlist %s: net %q has width %d", n.Name, t.Name, t.Width)
		}
		if t.Driver != NoCell {
			if int(t.Driver) >= len(n.Cells) {
				return fmt.Errorf("netlist %s: net %q driver %d out of range", n.Name, t.Name, t.Driver)
			}
			if !containsNet(n.Cells[t.Driver].Out, t.ID) {
				return fmt.Errorf("netlist %s: net %q driver cell does not list it as output", n.Name, t.Name)
			}
		}
		for _, s := range t.Sinks {
			if s < 0 || int(s) >= len(n.Cells) {
				return fmt.Errorf("netlist %s: net %q sink %d out of range", n.Name, t.Name, s)
			}
		}
	}
	for _, p := range n.Ports {
		if p.Net < 0 || int(p.Net) >= len(n.Nets) {
			return fmt.Errorf("netlist %s: port %q references net %d out of range", n.Name, p.Name, p.Net)
		}
	}
	return nil
}

// Stats summarizes the netlist for human-readable reports.
func (n *Netlist) Stats() string {
	r := n.Resources()
	return fmt.Sprintf("%s: %d cells, %d nets (%s)", n.Name, len(n.Cells), len(n.Nets), r)
}

// SortPorts orders ports by name for deterministic output.
func (n *Netlist) SortPorts() {
	sort.Slice(n.Ports, func(i, j int) bool { return n.Ports[i].Name < n.Ports[j].Name })
}

func containsCell(s []CellID, c CellID) bool {
	for _, v := range s {
		if v == c {
			return true
		}
	}
	return false
}

func containsNet(s []NetID, t NetID) bool {
	for _, v := range s {
		if v == t {
			return true
		}
	}
	return false
}
