package bitstream

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
	"sync"

	"vital/internal/fpga"
	"vital/internal/netlist"
)

// CacheKey content-addresses one compilation: the SHA-256 of every input
// that determines the Fig. 5 flow's output past synthesis. Two designs
// with the same key compile to bit-identical artifacts (the flow is
// deterministic), so the compiled result of one can serve the other.
type CacheKey [sha256.Size]byte

// String returns the key in hex.
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// CompileKey derives the cache key from the compile inputs: the
// synthesized netlist's structure, the virtual-block resource capacity,
// the partitioner seed, the block search bound, and the physical block
// geometry. Anything that can change the compiled artifacts must be
// hashed here; anything that cannot, must not be — in particular every
// name (design, cell, net, port) is excluded, because names are cosmetic
// to partition and P&R and synthesis embeds the design name in net names:
// hashing them would stop tenants deploying the same accelerator under
// different application names from sharing one cache entry.
func CompileKey(n *netlist.Netlist, capacity netlist.Resources, seed int64, maxBlocks int, shape fpga.BlockShape) CacheKey {
	w := NewKeyWriter()
	// Cell and net IDs are dense and ascending, so position encodes
	// identity; sink order is preserved (it is part of the structure).
	w.Line("cells", len(n.Cells))
	for i := range n.Cells {
		w.Line("c", int(n.Cells[i].Kind))
	}
	w.Line("nets", len(n.Nets))
	for i := range n.Nets {
		t := &n.Nets[i]
		w.str("n")
		w.num(int64(t.Width))
		w.num(int64(t.Driver))
		for _, s := range t.Sinks {
			w.num(int64(s))
		}
		w.end()
	}
	w.Line("ports", len(n.Ports))
	for _, p := range n.Ports {
		w.Line("p", int(p.Net), int(p.Dir), p.Width)
	}
	w.Params(capacity, seed, maxBlocks, shape)
	return w.Sum()
}

// keyChunk is how many rendered bytes a KeyWriter gathers before handing
// them to the hash.
const keyChunk = 4096

// KeyWriter renders the text lines a cache key hashes — a tag followed by
// space-separated decimal integers, one record per line — into SHA-256.
// Lines are appended into one reused buffer with strconv.AppendInt and
// reach the hash in chunks, so rendering a key allocates nothing per line.
// CompileKey and the core layer's design key both write through it.
type KeyWriter struct {
	h   hash.Hash
	buf []byte
}

// NewKeyWriter returns a writer over a fresh SHA-256.
func NewKeyWriter() *KeyWriter {
	return &KeyWriter{h: sha256.New(), buf: make([]byte, 0, keyChunk+256)}
}

// str appends s verbatim.
func (w *KeyWriter) str(s string) { w.buf = append(w.buf, s...) }

// num appends a space and v in decimal.
func (w *KeyWriter) num(v int64) {
	w.buf = append(w.buf, ' ')
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// end ends the line, handing the buffer to the hash once it holds a
// chunk.
func (w *KeyWriter) end() {
	w.buf = append(w.buf, '\n')
	if len(w.buf) >= keyChunk {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// Line writes one whole line: tag, then each value.
func (w *KeyWriter) Line(tag string, vals ...int) {
	w.str(tag)
	for _, v := range vals {
		w.num(int64(v))
	}
	w.end()
}

// Params writes the compile parameters, the lines both keys end with: the
// virtual-block capacity, the partitioner seed and block search bound, and
// the physical block geometry.
func (w *KeyWriter) Params(capacity netlist.Resources, seed int64, maxBlocks int, shape fpga.BlockShape) {
	w.Line("capacity", capacity.LUTs, capacity.DFFs, capacity.DSPs, capacity.BRAMKb)
	w.str("seed")
	w.num(seed)
	w.str(" maxblocks")
	w.num(int64(maxBlocks))
	w.end()
	w.Line("shape rows", shape.Rows)
	for _, c := range shape.Columns {
		w.Line("col", int(c.Kind), c.SitesPerDie)
	}
}

// Sum hashes what is still buffered and returns the key.
func (w *KeyWriter) Sum() CacheKey {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
	var k CacheKey
	w.h.Sum(k[:0])
	return k
}

// CacheStats are the compile cache's hit/miss counters.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CompileCache is a content-addressed store of compiled artifacts: the
// repeat path of the Compilation Layer. Recompiling a design the cluster
// has seen before — the common multi-tenant case, many tenants deploying
// the same accelerator — becomes a hash plus a lookup instead of a full
// partition + P&R run. Values are opaque to this package (the core layer
// stores its CompiledApp); entries must be treated as immutable by every
// consumer, since one entry serves many tenants concurrently.
type CompileCache struct {
	mu      sync.Mutex
	entries map[CacheKey]any
	// aliases maps a cheaper-to-compute key (the core layer's
	// pre-synthesis design key) to the authoritative compile key, letting
	// repeat compiles skip the stages that produce the authoritative
	// key's inputs.
	aliases map[CacheKey]CacheKey
	hits    uint64
	misses  uint64
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{entries: make(map[CacheKey]any), aliases: make(map[CacheKey]CacheKey)}
}

// Get returns the cached artifact for key, counting a hit or a miss.
func (c *CompileCache) Get(key CacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores an artifact under key, replacing any previous entry.
func (c *CompileCache) Put(key CacheKey, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = v
}

// AddAlias records that alias resolves to key. Aliases do not count as
// entries and resolving one does not move the hit/miss counters — the
// Get they lead to does.
func (c *CompileCache) AddAlias(alias, key CacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aliases[alias] = key
}

// Resolve returns the compile key a previously registered alias points to.
func (c *CompileCache) Resolve(alias CacheKey) (CacheKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := c.aliases[alias]
	return k, ok
}

// Stats snapshots the counters.
func (c *CompileCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// Reset drops every entry and zeroes the counters.
func (c *CompileCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[CacheKey]any)
	c.aliases = make(map[CacheKey]CacheKey)
	c.hits, c.misses = 0, 0
}
