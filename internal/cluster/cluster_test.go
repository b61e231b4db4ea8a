package cluster

import (
	"runtime"
	"testing"

	"vital/internal/fpga"
)

func TestDefaultClusterShape(t *testing.T) {
	c := Default()
	if len(c.Boards) != 4 {
		t.Fatalf("boards = %d, want 4 (Section 5.2)", len(c.Boards))
	}
	if c.BlocksPerBoard() != 15 {
		t.Fatalf("blocks/board = %d, want 15", c.BlocksPerBoard())
	}
	if c.TotalBlocks() != 60 {
		t.Fatalf("total blocks = %d", c.TotalBlocks())
	}
	if c.RingGbps != 100 {
		t.Fatalf("ring = %.0f Gb/s, want 100", c.RingGbps)
	}
	for i, b := range c.Boards {
		if b.ID != i || b.Device == nil || b.Mem == nil || b.Net == nil {
			t.Fatalf("board %d misconfigured: %+v", i, b)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumBoards: 0}); err == nil {
		t.Fatal("accepted zero boards")
	}
	c, err := New(Config{NumBoards: 2, DRAMBytesPerBoard: 1 << 32, DRAMBandwidthGBps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Boards[0].Mem.DRAM.CapacityBytes; got != 1<<32 {
		t.Fatalf("dram capacity = %d", got)
	}
}

func TestRingHopsBidirectional(t *testing.T) {
	c := Default()
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 1}, // wrap-around shorter
		{1, 3, 2}, {2, 3, 1},
	}
	for _, tc := range cases {
		if got := c.RingHops(tc.a, tc.b); got != tc.want {
			t.Errorf("RingHops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if c.RingHops(tc.a, tc.b) != c.RingHops(tc.b, tc.a) {
			t.Errorf("RingHops not symmetric for (%d,%d)", tc.a, tc.b)
		}
	}
}

func TestPathLatency(t *testing.T) {
	c := Default()
	if got := c.PathLatencyNs(0, 2); got != 2*c.HopLatencyNs {
		t.Fatalf("latency = %v", got)
	}
	if got := c.PathLatencyNs(1, 1); got != 0 {
		t.Fatalf("self latency = %v", got)
	}
}

func TestAllBlocksEnumeration(t *testing.T) {
	c := Default()
	refs := c.AllBlocks()
	if len(refs) != 60 {
		t.Fatalf("blocks = %d", len(refs))
	}
	seen := map[GlobalBlockRef]bool{}
	for _, r := range refs {
		if seen[r] {
			t.Fatalf("duplicate block %v", r)
		}
		seen[r] = true
		if r.Board < 0 || r.Board >= 4 {
			t.Fatalf("bad board in %v", r)
		}
	}
	if s := refs[0].String(); s != "fpga0/SLR0/PB0" {
		t.Fatalf("String = %q", s)
	}
}

func TestHeterogeneousClusterValidation(t *testing.T) {
	// VU37P and VU9P expose identical blocks: accepted.
	c, err := NewHeterogeneous([]*fpga.Device{fpga.XCVU37P(), fpga.XCVU9P()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalBlocks() != 15+9 {
		t.Fatalf("total blocks = %d, want 24", c.TotalBlocks())
	}
	if len(c.AllBlocks()) != 24 {
		t.Fatalf("AllBlocks = %d", len(c.AllBlocks()))
	}
	// A VU13P block shape differs: rejected.
	if _, err := NewHeterogeneous([]*fpga.Device{fpga.XCVU37P(), fpga.VU13P()}, Config{}); err == nil {
		t.Fatal("mismatched block shapes accepted")
	}
	if _, err := NewHeterogeneous(nil, Config{}); err == nil {
		t.Fatal("empty device list accepted")
	}
}

// A board costs what it uses, not what it has installed: 64 boards of the
// default 128 GiB DRAM retain at most 64 KiB each once built.
func TestNewRetainsLittlePerBoard(t *testing.T) {
	const boards = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(Config{NumBoards: boards})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(c)
	if perBoard := retained / boards; perBoard > 64<<10 {
		t.Fatalf("New(%d boards) retained %d bytes, %d per board; want <= 64 KiB per board", boards, retained, perBoard)
	}
	t.Logf("New(%d boards) retained %d bytes (%d per board)", boards, retained, retained/boards)
}
