package bitstream

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// CacheKey content-addresses one compilation: a SHA-256 over every input
// that determines the Fig. 5 flow's output. The core layer's design key
// is the only producer. Two designs with the same key compile to
// bit-identical artifacts (the flow is deterministic), so the compiled
// result of one can serve the other.
type CacheKey [sha256.Size]byte

// String returns the key in hex.
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

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
// synthesis, partition and P&R run. Values are opaque to this package (the core layer
// stores its CompiledApp); entries must be treated as immutable by every
// consumer, since one entry serves many tenants concurrently.
type CompileCache struct {
	mu      sync.Mutex
	entries map[CacheKey]any
	hits    uint64
	misses  uint64
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{entries: make(map[CacheKey]any)}
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
	c.hits, c.misses = 0, 0
}
