// Package fpga models the commercial FPGA silicon that ViTAL virtualizes:
// the column-based island architecture (Section 2.1), the extra
// heterogeneity of real devices — clock regions and multi-die packages —
// called out in the paper's "key learning" (Section 3.2), and the Fig. 7
// floorplan that partitions a device into service, communication and user
// regions with identical physical blocks.
//
// The stack only ever observes a device through this geometry (columns,
// clock regions, die boundaries, per-block resources) and through partial
// reconfiguration of blocks, which is exactly what the model exposes.
package fpga

import (
	"fmt"

	"vital/internal/netlist"
)

// ColumnKind is the resource class a column carries. Real UltraScale+
// devices interleave these column types across the die (Fig. 3a).
type ColumnKind uint8

// Column kinds.
const (
	ColCLB ColumnKind = iota
	ColDSP
	ColBRAM
	numColumnKinds = iota
)

// Per-CLB-site primitive capacities of an UltraScale+ SLICE.
const (
	LUTsPerCLB = 8
	DFFsPerCLB = 16
)

// String returns the column kind name.
func (k ColumnKind) String() string {
	switch k {
	case ColCLB:
		return "CLB"
	case ColDSP:
		return "DSP"
	case ColBRAM:
		return "BRAM"
	}
	return fmt.Sprintf("ColumnKind(%d)", uint8(k))
}

// Column is one vertical resource column within a die's user region.
// SitesPerDie is the number of sites the column contributes across the full
// height of the user region; a physical block receives SitesPerDie divided
// by the number of blocks stacked in the die.
type Column struct {
	Kind        ColumnKind
	SitesPerDie int
}

// BlockShape describes the column composition of one physical block — the
// unit of the homogeneous abstraction. All physical blocks of a device are
// identical by construction (the paper partitions in the row direction,
// where the column periodicity is preserved).
type BlockShape struct {
	// Columns lists the block's columns with per-block site counts.
	Columns []Column
	// Rows is the block height in CLB site rows, used for clock-region
	// alignment checks and as the Y extent of the placement grid.
	Rows int
}

// Resources returns the programmable resources one block provides.
func (s BlockShape) Resources() netlist.Resources {
	var r netlist.Resources
	for _, c := range s.Columns {
		switch c.Kind {
		case ColCLB:
			r.LUTs += c.SitesPerDie * LUTsPerCLB
			r.DFFs += c.SitesPerDie * DFFsPerCLB
		case ColDSP:
			r.DSPs += c.SitesPerDie
		case ColBRAM:
			r.BRAMKb += c.SitesPerDie * netlist.BRAMKb
		}
	}
	return r
}

// Width returns the number of columns in the block.
func (s BlockShape) Width() int { return len(s.Columns) }

// SiteCount returns the total number of sites of the given kind.
func (s BlockShape) SiteCount(k ColumnKind) int {
	n := 0
	for _, c := range s.Columns {
		if c.Kind == k {
			n += c.SitesPerDie
		}
	}
	return n
}
