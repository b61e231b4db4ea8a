package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"vital/internal/bitstream"
	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

// referenceDesignKey is designKey as written before the shared key
// renderer, one fmt.Fprintf per line: the reference model the renderer's
// bytes are compared with.
func referenceDesignKey(d *hls.Design, p compileParams) bitstream.CacheKey {
	h := sha256.New()
	loopIdx := make(map[string]int)
	fmt.Fprintf(h, "ops %d\n", len(d.Ops))
	for i := range d.Ops {
		op := &d.Ops[i]
		li, ok := loopIdx[op.Loop]
		if !ok {
			li = len(loopIdx)
			loopIdx[op.Loop] = li
		}
		fmt.Fprintf(h, "o %d %d %d %d %d %d\n",
			op.Kind, li, op.Budget.LUTs, op.Budget.DFFs, op.Budget.DSPs, op.Budget.BRAMs)
	}
	fmt.Fprintf(h, "conns %d\n", len(d.Conns))
	for _, c := range d.Conns {
		fmt.Fprintf(h, "c %d %d %d\n", c.From, c.To, c.Width)
	}
	fmt.Fprintf(h, "capacity %d %d %d %d\n",
		p.BlockCapacity.LUTs, p.BlockCapacity.DFFs, p.BlockCapacity.DSPs, p.BlockCapacity.BRAMKb)
	fmt.Fprintf(h, "seed %d maxblocks %d\n", p.PartitionSeed, p.MaxBlocks)
	fmt.Fprintf(h, "shape rows %d\n", p.Shape.Rows)
	for _, c := range p.Shape.Columns {
		fmt.Fprintf(h, "col %d %d\n", c.Kind, c.SitesPerDie)
	}
	var k bitstream.CacheKey
	h.Sum(k[:0])
	return k
}

// netlistStructure digests a netlist's structure without any name: cell
// kinds, net widths, drivers and sinks, and ports, in ID order. It is what
// partition and P&R see of a netlist, so two netlists with the same digest
// compile to the same artifacts.
func netlistStructure(n *netlist.Netlist) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "cells %d\n", len(n.Cells))
	for i := range n.Cells {
		fmt.Fprintf(h, "c %d\n", n.Cells[i].Kind)
	}
	fmt.Fprintf(h, "nets %d\n", len(n.Nets))
	for i := range n.Nets {
		t := &n.Nets[i]
		fmt.Fprintf(h, "n %d %d", t.Width, t.Driver)
		for _, s := range t.Sinks {
			fmt.Fprintf(h, " %d", s)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "ports %d\n", len(n.Ports))
	for _, p := range n.Ports {
		fmt.Fprintf(h, "p %d %d %d\n", p.Net, p.Dir, p.Width)
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// checkDesignKey fails the test unless designKey matches the reference
// model on d under p.
func checkDesignKey(t *testing.T, what string, d *hls.Design, p compileParams) {
	t.Helper()
	if got, want := designKey(d, p), referenceDesignKey(d, p); got != want {
		t.Fatalf("%s: designKey %s, reference %s", what, got, want)
	}
}

// stackParams returns a default stack's compile parameters.
func stackParams() compileParams {
	s := NewStack(nil)
	defer s.Controller.Close()
	return s.params()
}

// TestKeysMatchReferenceTable2 compares the design key with its fmt
// reference model on every Table 2 design under the stack's parameters.
func TestKeysMatchReferenceTable2(t *testing.T) {
	p := stackParams()
	for _, spec := range workload.AllSpecs() {
		t.Run(spec.Name(), func(t *testing.T) {
			checkDesignKey(t, spec.Name(), workload.BuildDesign(spec), p)
		})
	}
}

// TestKeysMatchReferenceRandom compares the design key with its reference
// model on random designs and random parameters, negative values
// included.
func TestKeysMatchReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	signed := func(n int) int { return rng.Intn(2*n+1) - n }
	for iter := 0; iter < 200; iter++ {
		d := hls.NewDesign(fmt.Sprintf("rand%d", iter))
		for i := rng.Intn(40); i >= 0; i-- {
			d.AddOp(hls.OpKind(rng.Intn(8)), fmt.Sprintf("op%d", i), fmt.Sprintf("loop%d", rng.Intn(5)), hls.Budget{
				LUTs: signed(1 << 20), DFFs: signed(1 << 20), DSPs: rng.Intn(4096), BRAMs: rng.Intn(4096),
			})
		}
		for i := rng.Intn(60); i > 0; i-- {
			d.Conns = append(d.Conns, hls.Conn{From: hls.OpID(rng.Intn(len(d.Ops))), To: hls.OpID(rng.Intn(len(d.Ops))), Width: signed(1 << 16)})
		}
		p := compileParams{
			BlockCapacity: netlist.Resources{LUTs: signed(1 << 30), DFFs: rng.Int(), DSPs: rng.Intn(9999), BRAMKb: rng.Intn(1 << 16)},
			PartitionSeed: rng.Int63() - rng.Int63(),
			MaxBlocks:     signed(64),
			Shape:         fpga.BlockShape{Rows: rng.Intn(1000)},
		}
		for i := rng.Intn(90); i > 0; i-- {
			p.Shape.Columns = append(p.Shape.Columns, fpga.Column{Kind: fpga.ColumnKind(rng.Intn(3)), SitesPerDie: rng.Intn(500)})
		}
		checkDesignKey(t, fmt.Sprintf("iteration %d", iter), d, p)
	}
}

// keyDesign is a small design for the key tests: four operators in three
// loops, three connections.
func keyDesign(name string) *hls.Design {
	d := hls.NewDesign(name)
	in := d.AddOp(hls.OpInput, "in", "io", hls.Budget{LUTs: 10, DFFs: 20})
	conv := d.AddOp(hls.OpConv, "conv1", "layer1", hls.Budget{LUTs: 900, DFFs: 1200, DSPs: 16, BRAMs: 4})
	pool := d.AddOp(hls.OpPool, "pool1", "layer1", hls.Budget{LUTs: 100, DFFs: 150})
	out := d.AddOp(hls.OpOutput, "out", "io2", hls.Budget{LUTs: 10, DFFs: 20})
	d.Connect(in, conv, 64)
	d.Connect(conv, pool, 128)
	d.Connect(pool, out, 64)
	return d
}

func keyParams() compileParams {
	return compileParams{
		BlockCapacity: netlist.Resources{LUTs: 100, DFFs: 200, DSPs: 10, BRAMKb: 72},
		PartitionSeed: 11,
		MaxBlocks:     8,
		Shape: fpga.BlockShape{Rows: 60, Columns: []fpga.Column{
			{Kind: fpga.ColCLB, SitesPerDie: 60},
			{Kind: fpga.ColDSP, SitesPerDie: 24},
		}},
	}
}

// TestDesignKeyIgnoresNames: the design name, operator names and loop-label
// text do not split the cache; regrouping operators into different loops
// does, because it changes the CDFG blocks synthesis builds.
func TestDesignKeyIgnoresNames(t *testing.T) {
	p := keyParams()
	base := designKey(keyDesign("tenant1-app"), p)

	renamed := keyDesign("tenant2-app")
	for i := range renamed.Ops {
		renamed.Ops[i].Name = fmt.Sprintf("renamed%d", i)
		renamed.Ops[i].Loop = "L-" + renamed.Ops[i].Loop
	}
	if designKey(renamed, p) != base {
		t.Fatal("names must not split the cache: structurally identical designs keyed differently")
	}

	regrouped := keyDesign("tenant1-app")
	regrouped.Ops[2].Loop = "layer2" // pool leaves conv's loop
	if designKey(regrouped, p) == base {
		t.Fatal("regrouping operators into loops did not change the key")
	}
}

// TestDesignKeySensitivity: every field that reaches the compiled
// artifacts changes the key.
func TestDesignKeySensitivity(t *testing.T) {
	base := designKey(keyDesign("app"), keyParams())
	for _, tc := range []struct {
		what   string
		mutate func(d *hls.Design, p *compileParams)
	}{
		{"op kind", func(d *hls.Design, p *compileParams) { d.Ops[2].Kind = hls.OpActivation }},
		{"op LUTs", func(d *hls.Design, p *compileParams) { d.Ops[1].Budget.LUTs++ }},
		{"op DFFs", func(d *hls.Design, p *compileParams) { d.Ops[1].Budget.DFFs++ }},
		{"op DSPs", func(d *hls.Design, p *compileParams) { d.Ops[1].Budget.DSPs++ }},
		{"op BRAMs", func(d *hls.Design, p *compileParams) { d.Ops[1].Budget.BRAMs++ }},
		{"extra op", func(d *hls.Design, p *compileParams) { d.AddOp(hls.OpGlue, "glue", "io", hls.Budget{LUTs: 1}) }},
		{"conn from", func(d *hls.Design, p *compileParams) { d.Conns[2].From = 1 }},
		{"conn to", func(d *hls.Design, p *compileParams) { d.Conns[0].To = 2 }},
		{"conn width", func(d *hls.Design, p *compileParams) { d.Conns[1].Width = 256 }},
		{"extra conn", func(d *hls.Design, p *compileParams) { d.Connect(0, 3, 8) }},
		{"capacity LUTs", func(d *hls.Design, p *compileParams) { p.BlockCapacity.LUTs++ }},
		{"capacity DFFs", func(d *hls.Design, p *compileParams) { p.BlockCapacity.DFFs++ }},
		{"capacity DSPs", func(d *hls.Design, p *compileParams) { p.BlockCapacity.DSPs++ }},
		{"capacity BRAM", func(d *hls.Design, p *compileParams) { p.BlockCapacity.BRAMKb++ }},
		{"partition seed", func(d *hls.Design, p *compileParams) { p.PartitionSeed++ }},
		{"block search bound", func(d *hls.Design, p *compileParams) { p.MaxBlocks++ }},
		{"shape rows", func(d *hls.Design, p *compileParams) { p.Shape.Rows++ }},
		{"shape column kind", func(d *hls.Design, p *compileParams) { p.Shape.Columns[1].Kind = fpga.ColBRAM }},
		{"shape column sites", func(d *hls.Design, p *compileParams) { p.Shape.Columns[0].SitesPerDie++ }},
	} {
		d, p := keyDesign("app"), keyParams()
		tc.mutate(d, &p)
		if designKey(d, p) == base {
			t.Errorf("%s did not change the key", tc.what)
		}
	}
}

// TestDesignKeyStandsForNetlistTable2 checks the premise of a compile cache
// keyed before synthesis, on every Table 2 design: a copy with every name
// changed (design, operators, loop labels) keeps its design key and
// synthesizes to the same names-free netlist structure, and the 21
// designs' keys are pairwise distinct.
func TestDesignKeyStandsForNetlistTable2(t *testing.T) {
	p := stackParams()
	specs := workload.AllSpecs()
	keys := make([]bitstream.CacheKey, len(specs))
	ok := t.Run("renamed", func(t *testing.T) {
		for i, spec := range specs {
			t.Run(spec.Name(), func(t *testing.T) {
				t.Parallel()
				d := workload.BuildDesign(spec)
				renamed := workload.BuildDesign(spec)
				renamed.Name = "tenant-" + spec.Name()
				for j := range renamed.Ops {
					renamed.Ops[j].Name = fmt.Sprintf("op%d", j)
					renamed.Ops[j].Loop = "renamed." + renamed.Ops[j].Loop
				}
				keys[i] = designKey(d, p)
				if got := designKey(renamed, p); got != keys[i] {
					t.Fatalf("renamed copy keyed %s, original %s", got, keys[i])
				}
				a, err := hls.Synthesize(d)
				if err != nil {
					t.Fatal(err)
				}
				b, err := hls.Synthesize(renamed)
				if err != nil {
					t.Fatal(err)
				}
				if netlistStructure(a.Netlist) != netlistStructure(b.Netlist) {
					t.Fatal("renamed copy synthesized to a different netlist structure")
				}
			})
		}
	})
	if !ok {
		return
	}
	seen := make(map[bitstream.CacheKey]string, len(specs))
	for i, spec := range specs {
		if other, dup := seen[keys[i]]; dup {
			t.Fatalf("%s and %s share design key %s", other, spec.Name(), keys[i])
		}
		seen[keys[i]] = spec.Name()
	}
}
