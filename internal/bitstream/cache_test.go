package bitstream

import (
	"sync"
	"testing"

	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

func keyNetlist(name string) *netlist.Netlist {
	n := netlist.New(name)
	a := n.AddCell(netlist.KindLUT, "a")
	b := n.AddCell(netlist.KindDFF, "b")
	t := n.AddNet("w", 8)
	n.SetDriver(t, a)
	n.AddSink(t, b)
	n.AddPort("out", t, netlist.DirOut, 8)
	return n
}

var keyCapacity = netlist.Resources{LUTs: 100, DFFs: 200, DSPs: 10, BRAMKb: 72}

func keyShape() fpga.BlockShape {
	return fpga.BlockShape{
		Rows: 60,
		Columns: []fpga.Column{
			{Kind: fpga.ColCLB, SitesPerDie: 60},
			{Kind: fpga.ColDSP, SitesPerDie: 24},
		},
	}
}

func TestCompileKeyIgnoresNames(t *testing.T) {
	k1 := CompileKey(keyNetlist("tenant1-app"), keyCapacity, 11, 8, keyShape())
	n2 := keyNetlist("tenant2-app")
	n2.Cells[0].Name = "renamed"
	n2.Nets[0].Name = "other"
	k2 := CompileKey(n2, keyCapacity, 11, 8, keyShape())
	if k1 != k2 {
		t.Fatal("names must not split the cache: structurally identical netlists keyed differently")
	}
}

func TestCompileKeySensitivity(t *testing.T) {
	base := CompileKey(keyNetlist("app"), keyCapacity, 11, 8, keyShape())

	bigger := keyNetlist("app")
	bigger.AddCell(netlist.KindLUT, "extra")
	if CompileKey(bigger, keyCapacity, 11, 8, keyShape()) == base {
		t.Fatal("extra cell did not change the key")
	}

	wider := keyNetlist("app")
	wider.Nets[0].Width = 16
	if CompileKey(wider, keyCapacity, 11, 8, keyShape()) == base {
		t.Fatal("net width did not change the key")
	}

	cap2 := keyCapacity
	cap2.LUTs++
	if CompileKey(keyNetlist("app"), cap2, 11, 8, keyShape()) == base {
		t.Fatal("block capacity did not change the key")
	}
	if CompileKey(keyNetlist("app"), keyCapacity, 12, 8, keyShape()) == base {
		t.Fatal("partition seed did not change the key")
	}
	if CompileKey(keyNetlist("app"), keyCapacity, 11, 9, keyShape()) == base {
		t.Fatal("block search bound did not change the key")
	}
	shape2 := keyShape()
	shape2.Columns[1].Kind = fpga.ColBRAM
	if CompileKey(keyNetlist("app"), keyCapacity, 11, 8, shape2) == base {
		t.Fatal("grid shape did not change the key")
	}
}

func TestCompileCacheCounters(t *testing.T) {
	c := NewCompileCache()
	k := CompileKey(keyNetlist("app"), keyCapacity, 11, 8, keyShape())
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, "artifact")
	v, ok := c.Get(k)
	if !ok || v.(string) != "artifact" {
		t.Fatalf("lookup after put: %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	alias := CacheKey{1, 2, 3}
	if _, ok := c.Resolve(alias); ok {
		t.Fatal("unregistered alias resolved")
	}
	c.AddAlias(alias, k)
	if got, ok := c.Resolve(alias); !ok || got != k {
		t.Fatalf("alias resolve = %v, %v", got, ok)
	}
	// Aliases are pointers, not entries, and resolving moves no counter.
	if st := c.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after alias = %+v", st)
	}
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if _, ok := c.Resolve(alias); ok {
		t.Fatal("alias survived reset")
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("hit rate before any lookup must be 0")
	}
}

func TestCompileCacheConcurrent(t *testing.T) {
	c := NewCompileCache()
	k := CompileKey(keyNetlist("app"), keyCapacity, 11, 8, keyShape())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Put(k, j)
				c.Get(k)
				c.Stats()
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != 8*200 {
		t.Fatalf("lookup count = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

func TestRebrandSharesFrames(t *testing.T) {
	b := &Bitstream{App: "app", VirtualBlock: 2, Frames: []Frame{{Payload: []byte{1, 2}, CRC: 42}}}
	r := b.Rebrand("tenant2")
	if r.App != "tenant2" || r.VirtualBlock != 2 {
		t.Fatalf("rebrand = %+v", r)
	}
	if &r.Frames[0] != &b.Frames[0] {
		t.Fatal("rebrand must share frames, not copy them")
	}
	if same := b.Rebrand("app"); same != b {
		t.Fatal("rebrand to the same name must return the receiver")
	}
}

// BenchmarkCompileKey hashes alexnet-M's synthesized netlist, the largest
// cold_compile design, under the XCVU37P block parameters.
func BenchmarkCompileKey(b *testing.B) {
	spec, err := workload.ParseSpec("alexnet-M")
	if err != nil {
		b.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		b.Fatal(err)
	}
	shape := fpga.XCVU37P().BlockShape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = CompileKey(res.Netlist, shape.Resources(), 11, 16, shape)
	}
}

var keySink CacheKey
