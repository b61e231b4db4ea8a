package core

import (
	"vital/internal/bitstream"
	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
)

// CompileParams are the stack parameters that, together with a design's
// structure, determine the compiled artifacts — everything the design key
// hashes besides the design itself. The admission gateway fetches them
// from the backend (GET /compileparams) so it can compute the same
// content-addressed key the backend's cache uses, without compiling
// anything.
type CompileParams struct {
	BlockCapacity netlist.Resources `json:"block_capacity"`
	PartitionSeed int64             `json:"partition_seed"`
	MaxBlocks     int               `json:"max_blocks"`
	Shape         fpga.BlockShape   `json:"shape"`
}

// CompileParams returns this stack's compile parameters.
func (s *Stack) CompileParams() CompileParams {
	return CompileParams{
		BlockCapacity: s.BlockCapacity,
		PartitionSeed: partitionSeed,
		MaxBlocks:     s.MaxBlocksPerApp,
		Shape:         s.Grid.Shape,
	}
}

// DesignKey hashes a Programming Layer design plus compile parameters into
// a cache key usable *before* synthesis. Synthesis is deterministic in the
// design's structure, so two designs with the same design key synthesize
// to structurally identical netlists and therefore share a compile key
// (bitstream.CompileKey) — the design key is registered as an alias for
// it, letting a repeat compile skip synthesis entirely. Like the compile
// key, every name is excluded: the design name and operator names only
// decorate net names, and loop-nest labels are canonicalized to
// first-occurrence indices so only the *grouping* of operators into CDFG
// blocks is hashed, not the label text.
//
// The same property is what makes the key the admission gateway's
// coalescing handle: N tenants submitting the same accelerator under N
// different names map onto one key, one in-flight compile, one cache
// entry.
func DesignKey(d *hls.Design, p CompileParams) bitstream.CacheKey {
	w := bitstream.NewKeyWriter()
	loopIdx := make(map[string]int)
	w.Line("ops", len(d.Ops))
	for i := range d.Ops {
		op := &d.Ops[i]
		li, ok := loopIdx[op.Loop]
		if !ok {
			li = len(loopIdx)
			loopIdx[op.Loop] = li
		}
		w.Line("o", int(op.Kind), li, op.Budget.LUTs, op.Budget.DFFs, op.Budget.DSPs, op.Budget.BRAMs)
	}
	w.Line("conns", len(d.Conns))
	for _, c := range d.Conns {
		w.Line("c", int(c.From), int(c.To), c.Width)
	}
	w.Params(p.BlockCapacity, p.PartitionSeed, p.MaxBlocks, p.Shape)
	return w.Sum()
}

// designKey is DesignKey under this stack's own parameters.
func (s *Stack) designKey(d *hls.Design) bitstream.CacheKey {
	return DesignKey(d, s.CompileParams())
}
