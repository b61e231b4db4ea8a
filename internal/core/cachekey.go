package core

import (
	"crypto/sha256"
	"strconv"

	"vital/internal/bitstream"
	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
)

// compileParams are the stack parameters that, together with a design's
// structure, determine the compiled artifacts — everything the design key
// hashes besides the design itself.
type compileParams struct {
	BlockCapacity netlist.Resources
	PartitionSeed int64
	MaxBlocks     int
	Shape         fpga.BlockShape
}

// params returns this stack's compile parameters.
func (s *Stack) params() compileParams {
	return compileParams{
		BlockCapacity: s.BlockCapacity,
		PartitionSeed: partitionSeed,
		MaxBlocks:     s.MaxBlocksPerApp,
		Shape:         s.Grid.Shape,
	}
}

// designKey hashes a Programming Layer design plus compile parameters into
// the compile cache's key, usable *before* synthesis. Anything that can
// change the compiled artifacts must be hashed here; anything that cannot,
// must not be. Synthesis is deterministic in the design's structure, so
// two designs with the same design key synthesize to structurally
// identical netlists and compile to identical artifacts. Every name is
// excluded: the design name and operator names only decorate net names,
// which are cosmetic to partition and P&R, and loop-nest labels are
// canonicalized to first-occurrence indices so only the *grouping* of
// operators into CDFG blocks is hashed, not the label text.
//
// The same property is what makes the key CompileSpec's coalescing
// handle: N tenants submitting the same accelerator under N different
// names map onto one key, one in-flight compile, one cache entry.
func designKey(d *hls.Design, p compileParams) bitstream.CacheKey {
	w := keyWriter{buf: make([]byte, 0, 4096)}
	loopIdx := make(map[string]int)
	w.line("ops", len(d.Ops))
	for i := range d.Ops {
		op := &d.Ops[i]
		li, ok := loopIdx[op.Loop]
		if !ok {
			li = len(loopIdx)
			loopIdx[op.Loop] = li
		}
		w.line("o", int(op.Kind), li, op.Budget.LUTs, op.Budget.DFFs, op.Budget.DSPs, op.Budget.BRAMs)
	}
	w.line("conns", len(d.Conns))
	for _, c := range d.Conns {
		w.line("c", int(c.From), int(c.To), c.Width)
	}
	w.params(p)
	return w.sum()
}

// keyWriter renders the text a design key hashes — a tag followed by
// space-separated decimal integers, one record per line — into one buffer
// with strconv.AppendInt, then hashes it whole.
type keyWriter struct {
	buf []byte
}

// line writes one whole line: tag, then each value.
func (w *keyWriter) line(tag string, vals ...int) {
	w.buf = append(w.buf, tag...)
	for _, v := range vals {
		w.buf = append(w.buf, ' ')
		w.buf = strconv.AppendInt(w.buf, int64(v), 10)
	}
	w.buf = append(w.buf, '\n')
}

// params writes the compile parameters the key ends with: the
// virtual-block capacity, the partitioner seed and block search bound, and
// the physical block geometry.
func (w *keyWriter) params(p compileParams) {
	c := p.BlockCapacity
	w.line("capacity", c.LUTs, c.DFFs, c.DSPs, c.BRAMKb)
	w.buf = append(w.buf, "seed "...)
	w.buf = strconv.AppendInt(w.buf, p.PartitionSeed, 10)
	w.buf = append(w.buf, " maxblocks "...)
	w.buf = strconv.AppendInt(w.buf, int64(p.MaxBlocks), 10)
	w.buf = append(w.buf, '\n')
	w.line("shape rows", p.Shape.Rows)
	for _, col := range p.Shape.Columns {
		w.line("col", int(col.Kind), col.SitesPerDie)
	}
}

// sum returns the SHA-256 of everything written.
func (w *keyWriter) sum() bitstream.CacheKey {
	return sha256.Sum256(w.buf)
}

// designKey is the package-level designKey under this stack's own
// parameters.
func (s *Stack) designKey(d *hls.Design) bitstream.CacheKey {
	return designKey(d, s.params())
}
