package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vital/internal/workload"
)

// compileGoldenDesigns are the Table 2 designs TestCompileGolden pins:
// small enough for tier-1, varied enough to cover one- to multi-block
// partitions.
var compileGoldenDesigns = []string{"lenet-S", "svhn-S", "cifar10-S", "alexnet-S", "nin-M"}

// compileGolden is one design's compile output as TestCompileGolden pins
// it. The partition fields come first: they are fixed by synthesis,
// partitioning, interface generation and the frame encoding, and a change
// confined to local place-and-route must leave them byte-identical. The
// P&R fields after them move whenever placement or routing does.
type compileGolden struct {
	Design          string `json:"design"`
	NumBlocks       int    `json:"num_blocks"`
	CutWidth        int    `json:"cut_width"`
	PerBlockInBits  []int  `json:"per_block_in_bits"`
	PerBlockOutBits []int  `json:"per_block_out_bits"`
	Channels        int    `json:"channels"`
	// FramesSHA256[b] digests every frame of virtual block b's bitstream:
	// address, payload and CRC, in frame order.
	FramesSHA256 []string `json:"frames_sha256"`

	// FminMHz is the worst block Fmax in exact shortest-round-trip form.
	FminMHz         string `json:"fmin_mhz"`
	WirelengthUnits []int  `json:"wirelength_units"`
	OverflowEdges   []int  `json:"overflow_edges"`
	MazeRouted      []int  `json:"maze_routed"`
	// SitesSHA256 digests every block's placement sites in entity order.
	SitesSHA256 string `json:"sites_sha256"`
}

func compileGoldenOf(app *CompiledApp) compileGolden {
	g := compileGolden{
		Design:          app.Name,
		NumBlocks:       app.Partition.NumBlocks,
		CutWidth:        app.Partition.CutWidth,
		PerBlockInBits:  app.Partition.PerBlockInBits,
		PerBlockOutBits: app.Partition.PerBlockOutBits,
		Channels:        len(app.Channels),
		FminMHz:         strconv.FormatFloat(app.FminMHz, 'g', -1, 64),
	}
	for _, bs := range app.Bitstreams {
		h := sha256.New()
		for _, f := range bs.Frames {
			fmt.Fprintf(h, "%d/%d/%d/%d:", f.Addr.Die, f.Addr.Block, f.Addr.Col, f.Addr.Minor)
			h.Write(f.Payload)
			_ = binary.Write(h, binary.BigEndian, f.CRC)
		}
		g.FramesSHA256 = append(g.FramesSHA256, hex.EncodeToString(h.Sum(nil)))
	}
	sites := sha256.New()
	for _, br := range app.BlockResults {
		g.WirelengthUnits = append(g.WirelengthUnits, br.Routing.WirelengthUnits)
		g.OverflowEdges = append(g.OverflowEdges, br.Routing.OverflowEdges)
		g.MazeRouted = append(g.MazeRouted, br.Routing.MazeRouted)
		fmt.Fprintf(sites, "block %d:", br.Block)
		for _, s := range br.Placement.Sites {
			fmt.Fprintf(sites, "%d/%d/%d;", s.Kind, s.Col, s.Idx)
		}
	}
	g.SitesSHA256 = hex.EncodeToString(sites.Sum(nil))
	return g
}

// TestCompileGolden pins the compile output of compileGoldenDesigns. The
// flow is deterministic, so the file changes only when the compiler is
// meant to: a P&R-only change may move the P&R fields and nothing else.
// Regenerate with: go test ./internal/core -run TestCompileGolden -update
func TestCompileGolden(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	var got []compileGolden
	for _, design := range compileGoldenDesigns {
		spec, err := workload.ParseSpec(design)
		if err != nil {
			t.Fatal(err)
		}
		app, err := s.Compile(workload.BuildDesign(spec))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, compileGoldenOf(app))
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "compile_golden.json")
	if *update {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("compile output differs from %s (rerun with -update only if the compiler is meant to change):\n%s", path, out)
	}
}
