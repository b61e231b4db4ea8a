package bitstream

import (
	"sync"
	"testing"
)

func TestCompileCacheCounters(t *testing.T) {
	c := NewCompileCache()
	k := CacheKey{1, 2, 3}
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
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("hit rate before any lookup must be 0")
	}
}

func TestCompileCacheConcurrent(t *testing.T) {
	c := NewCompileCache()
	k := CacheKey{1, 2, 3}
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
