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

// referenceCompileKey is bitstream.CompileKey as written before the shared
// key renderer, one fmt.Fprintf per line: the reference model the
// renderer's bytes are compared with.
func referenceCompileKey(n *netlist.Netlist, capacity netlist.Resources, seed int64, maxBlocks int, shape fpga.BlockShape) bitstream.CacheKey {
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
	fmt.Fprintf(h, "capacity %d %d %d %d\n", capacity.LUTs, capacity.DFFs, capacity.DSPs, capacity.BRAMKb)
	fmt.Fprintf(h, "seed %d maxblocks %d\n", seed, maxBlocks)
	fmt.Fprintf(h, "shape rows %d\n", shape.Rows)
	for _, c := range shape.Columns {
		fmt.Fprintf(h, "col %d %d\n", c.Kind, c.SitesPerDie)
	}
	var k bitstream.CacheKey
	h.Sum(k[:0])
	return k
}

// referenceDesignKey is DesignKey as written before the shared key
// renderer.
func referenceDesignKey(d *hls.Design, p CompileParams) bitstream.CacheKey {
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

// checkKeys fails the test unless both keys of d (and of its synthesized
// netlist n) match the reference models under p.
func checkKeys(t *testing.T, what string, d *hls.Design, n *netlist.Netlist, p CompileParams) {
	t.Helper()
	if got, want := DesignKey(d, p), referenceDesignKey(d, p); got != want {
		t.Fatalf("%s: DesignKey %s, reference %s", what, got, want)
	}
	got := bitstream.CompileKey(n, p.BlockCapacity, p.PartitionSeed, p.MaxBlocks, p.Shape)
	want := referenceCompileKey(n, p.BlockCapacity, p.PartitionSeed, p.MaxBlocks, p.Shape)
	if got != want {
		t.Fatalf("%s: CompileKey %s, reference %s", what, got, want)
	}
}

// TestKeysMatchReferenceTable2 compares both keys with their fmt
// reference models on every Table 2 design under the stack's parameters.
func TestKeysMatchReferenceTable2(t *testing.T) {
	s := NewStack(nil)
	p := s.CompileParams()
	s.Controller.Close()
	for _, spec := range workload.AllSpecs() {
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			d := workload.BuildDesign(spec)
			res, err := hls.Synthesize(d)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, spec.Name(), d, res.Netlist, p)
		})
	}
}

// TestKeysMatchReferenceRandom compares both keys with their reference
// models on random designs, random netlists (undriven nets, empty sink
// lists, every cell kind and port direction) and random parameters,
// negative values included.
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

		n := netlist.New(d.Name)
		cells := rng.Intn(300)
		for i := 0; i < cells; i++ {
			n.AddCell(netlist.Kind(rng.Intn(5)), "c")
		}
		for i := rng.Intn(600); i > 0; i-- {
			net := n.AddNet("n", 1+rng.Intn(1<<12))
			if cells == 0 || rng.Intn(10) == 0 {
				continue // undriven, no sinks
			}
			n.SetDriver(net, netlist.CellID(rng.Intn(cells)))
			for k := rng.Intn(70); k > 0; k-- {
				n.AddSink(net, netlist.CellID(rng.Intn(cells)))
			}
		}
		for i := rng.Intn(8); i > 0 && n.NumNets() > 0; i-- {
			n.AddPort("p", netlist.NetID(rng.Intn(n.NumNets())), netlist.Dir(rng.Intn(2)), 1+rng.Intn(512))
		}

		p := CompileParams{
			BlockCapacity: netlist.Resources{LUTs: signed(1 << 30), DFFs: rng.Int(), DSPs: rng.Intn(9999), BRAMKb: rng.Intn(1 << 16)},
			PartitionSeed: rng.Int63() - rng.Int63(),
			MaxBlocks:     signed(64),
			Shape:         fpga.BlockShape{Rows: rng.Intn(1000)},
		}
		for i := rng.Intn(90); i > 0; i-- {
			p.Shape.Columns = append(p.Shape.Columns, fpga.Column{Kind: fpga.ColumnKind(rng.Intn(3)), SitesPerDie: rng.Intn(500)})
		}
		checkKeys(t, fmt.Sprintf("iteration %d", iter), d, n, p)
	}
}
