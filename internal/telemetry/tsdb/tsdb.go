// Package tsdb is an embedded, stdlib-only time-series store for the
// vital_* telemetry registry: a scrape loop samples a Registry at a fixed
// interval into per-series chunked ring storage (timestamp-delta + XOR
// varint encoding, bounded retention, O(1) append), and a range-query
// engine answers rate/increase/avg/max/quantile questions over aligned
// steps — the historical substrate the point-in-time /metrics snapshot
// cannot provide. Both serving tiers embed one: vitald over the
// controller registry, vitalgw over the gateway registry (its /query
// additionally federates the backend's series under a tier label), and
// `vitalscenario replay` drives one deterministically to report
// utilization/fragmentation/SLO curves for a replayed tenant mix.
package tsdb

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"vital/internal/telemetry"
)

// Options tunes a DB.
type Options struct {
	// Retention bounds how far back queries can reach: chunks whose
	// newest sample is older than Retention are dropped on the next
	// append to their series, a series that old on the next Scrape. Zero
	// selects DefaultRetention.
	Retention time.Duration
	// ChunkSamples is the number of samples per chunk (zero selects
	// DefaultChunkSamples).
	ChunkSamples int
	// MaxChunks bounds each series' chunk ring regardless of time — the
	// hard memory ceiling when a scraper runs faster than Retention
	// assumes. Zero selects DefaultMaxChunks.
	MaxChunks int
}

// Defaults: 2 h of 1 s scrapes fit comfortably (per series: at most 64
// chunks × 120 samples), and a 15 s production cadence reaches far past
// the retention horizon before the chunk cap bites.
const (
	DefaultRetention    = 2 * time.Hour
	DefaultChunkSamples = 120
	DefaultMaxChunks    = 64
)

// memSeries is the in-memory state of one stored series. Series live by
// value in DB.slots and read their name and labels back from their key,
// so a series with one chunk costs two heap objects — its key and the
// chunk's bytes — however many labels it has, and the collector's mark
// phase has that much less to visit.
type memSeries struct {
	key    string  // appendKey(name, labels sorted by key)
	head   chunk   // the active chunk
	sealed []chunk // full chunks, oldest first
	lastT  int64   // newest appended timestamp (ms)
}

// chunkCount is the number of chunks the series holds, the active one
// included.
func (s *memSeries) chunkCount() int { return len(s.sealed) + 1 }

// encodedBytes sums the encoded bytes of every chunk of the series.
func (s *memSeries) encodedBytes() int { return encodedBytes(s.sealed) + len(s.head.buf) }

// DB is the store. All methods are safe for concurrent use; one mutex
// guards the series table (scrapes are periodic and queries read-mostly,
// so contention is negligible next to the encode work itself).
type DB struct {
	opts Options

	mu        sync.Mutex
	series    map[string]int32 // key → index in slots
	slots     []memSeries      // stored series; a dropped series' slot is zeroed and reused
	free      []int32          // indices of zeroed slots
	order     []int32          // live slots in insertion order, for deterministic iteration
	appended  uint64           // total samples ever appended
	evictions uint64           // chunks dropped by retention or the ring cap
	bytes     int              // encoded bytes across every resident chunk

	// Append's scratch, reused under mu: the labels sorted by key and the
	// key they render, so that a sample of an existing series allocates
	// nothing.
	sorted []telemetry.Label
	keyBuf []byte

	scrapeHist *telemetry.Histogram
	registered []*telemetry.Registry // in registration order
}

// New builds an empty DB.
func New(opts Options) *DB {
	if opts.Retention <= 0 {
		opts.Retention = DefaultRetention
	}
	if opts.ChunkSamples <= 0 {
		opts.ChunkSamples = DefaultChunkSamples
	}
	if opts.MaxChunks <= 0 {
		opts.MaxChunks = DefaultMaxChunks
	}
	return &DB{opts: opts, series: map[string]int32{}}
}

// Register publishes the DB's own health as vital_tsdb_* series in reg —
// which the scrape loop then samples like any other family, so the store
// observes itself. Idempotent per registry.
func (db *DB) Register(reg *telemetry.Registry) {
	db.mu.Lock()
	if slices.Contains(db.registered, reg) {
		db.mu.Unlock()
		return
	}
	db.registered = append(db.registered, reg)
	db.mu.Unlock()
	samples := reg.CounterDesc("vital_tsdb_samples_total", "Samples appended to the time-series store.")
	evicted := reg.CounterDesc("vital_tsdb_evicted_chunks_total", "Chunks dropped by retention or the per-series ring cap.")
	series := reg.GaugeDesc("vital_tsdb_series", "Distinct series resident in the time-series store.")
	chunkBytes := reg.GaugeDesc("vital_tsdb_chunk_bytes", "Encoded bytes resident across all series' chunks.")
	reg.Collect(func(emit telemetry.Emit) {
		db.mu.Lock()
		appended, evictions, resident, n := db.appended, db.evictions, len(db.series), db.bytes
		db.mu.Unlock()
		emit(samples, float64(appended))
		emit(evicted, float64(evictions))
		emit(series, float64(resident))
		emit(chunkBytes, float64(n))
	})
	hist := reg.Histogram("vital_tsdb_scrape_seconds",
		"Wall time of one registry scrape: flatten, encode, retire expired chunks.", nil)
	db.mu.Lock()
	if db.scrapeHist == nil {
		db.scrapeHist = hist
	}
	db.mu.Unlock()
}

// appendKey appends the identity of a series to b: the name and then each
// label's key and value, every string preceded by its length as a uvarint.
// labels must be sorted by key. The encoding is injective, and keyName and
// keyLabels read the parts back as substrings of the key, without copying.
func appendKey(b []byte, name string, labels []telemetry.Label) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	for _, l := range labels {
		b = binary.AppendUvarint(b, uint64(len(l.Key)))
		b = append(b, l.Key...)
		b = binary.AppendUvarint(b, uint64(len(l.Value)))
		b = append(b, l.Value...)
	}
	return b
}

// nextString splits the first length-prefixed string off an appendKey
// rendering.
func nextString(k string) (string, string) {
	n, w := binary.Uvarint([]byte(k[:min(len(k), binary.MaxVarintLen64)]))
	k = k[w:]
	return k[:n], k[n:]
}

// keyName returns the metric name of a series key.
func keyName(k string) string {
	name, _ := nextString(k)
	return name
}

// keyLabels returns the labels of a series key, sorted by key. The
// strings share the key's bytes; only the slice is allocated.
func keyLabels(k string) []telemetry.Label {
	_, rest := nextString(k)
	var labels []telemetry.Label
	for rest != "" {
		var l telemetry.Label
		l.Key, rest = nextString(rest)
		l.Value, rest = nextString(rest)
		labels = append(labels, l)
	}
	return labels
}

// compareKeys orders labels by key.
func compareKeys(a, b telemetry.Label) int { return strings.Compare(a.Key, b.Key) }

// Append records one sample for (name, labels) at t. Labels need not be
// sorted. Out-of-order timestamps (t older than the series' newest) are
// dropped — the scraper is the only writer and time moves forward; a
// replayed clock that regressed would otherwise corrupt delta windows.
func (db *DB) Append(name string, labels []telemetry.Label, t time.Time, v float64) {
	ms := t.UnixMilli()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sorted = append(db.sorted[:0], labels...)
	slices.SortFunc(db.sorted, compareKeys)
	db.keyBuf = appendKey(db.keyBuf[:0], name, db.sorted)
	clear(db.sorted) // hold no caller's strings past the call
	i, ok := db.series[string(db.keyBuf)]
	if !ok {
		i = db.newSeriesLocked(string(db.keyBuf))
	}
	s := &db.slots[i]
	if s.lastT != 0 && ms < s.lastT {
		return
	}
	db.appendLocked(s, ms, v)
}

// newSeriesLocked stores an empty series under key, in a free slot when
// there is one, and returns its slot.
func (db *DB) newSeriesLocked(key string) int32 {
	var i int32
	if n := len(db.free); n > 0 {
		i = db.free[n-1]
		db.free = db.free[:n-1]
	} else {
		i = int32(len(db.slots))
		db.slots = append(db.slots, memSeries{})
	}
	db.slots[i].key = key
	db.series[key] = i
	db.order = append(db.order, i)
	return i
}

func (db *DB) appendLocked(s *memSeries, ms int64, v float64) {
	if s.head.n >= db.opts.ChunkSamples {
		s.sealed = append(s.sealed, s.head)
		s.head = chunk{}
	}
	before := len(s.head.buf)
	s.head.append(ms, v)
	db.bytes += len(s.head.buf) - before
	s.lastT = ms
	db.appended++
	// Retire expired chunks (never the active one): past the retention
	// horizon, or beyond the ring cap.
	cutoff := ms - db.opts.Retention.Milliseconds()
	drop := 0
	for drop < len(s.sealed) && (s.sealed[drop].maxT < cutoff || s.chunkCount()-drop > db.opts.MaxChunks) {
		drop++
	}
	if drop > 0 {
		db.bytes -= encodedBytes(s.sealed[:drop])
		n := copy(s.sealed, s.sealed[drop:])
		clear(s.sealed[n:])
		s.sealed = s.sealed[:n]
		db.evictions += uint64(drop)
	}
}

// encodedBytes sums the encoded bytes of chunks.
func encodedBytes(chunks []chunk) int {
	n := 0
	for i := range chunks {
		n += len(chunks[i].buf)
	}
	return n
}

// Scrape samples every series of reg at now, appending one point per flat
// sample (histograms expand to their _bucket/_sum/_count series). extra
// labels are attached to every stored series — the replay harness scrapes
// two registries into one DB under tier=backend / tier=gateway.
func (db *DB) Scrape(reg *telemetry.Registry, now time.Time, extra ...telemetry.Label) {
	start := time.Now()
	// Flatten outside db.mu: Samples evaluates GaugeFunc callbacks, and
	// the DB's own Register callbacks take db.mu.
	samples := reg.Samples()
	for _, smp := range samples {
		labels := smp.Labels
		if len(extra) > 0 {
			labels = append(append(make([]telemetry.Label, 0, len(labels)+len(extra)), labels...), extra...)
		}
		db.Append(smp.Name, labels, now, smp.Value)
	}
	// Drop every series whose newest sample has aged out: append-time
	// retention never reaches the series of an entity that is gone (an
	// undeployed app), which is never appended to again.
	cutoff := now.UnixMilli() - db.opts.Retention.Milliseconds()
	db.mu.Lock()
	keep := db.order[:0]
	for _, i := range db.order {
		if s := &db.slots[i]; s.lastT < cutoff {
			db.evictions += uint64(s.chunkCount())
			db.bytes -= s.encodedBytes()
			delete(db.series, s.key)
			*s = memSeries{}
			db.free = append(db.free, i)
			continue
		}
		keep = append(keep, i)
	}
	db.order = keep
	hist := db.scrapeHist
	db.mu.Unlock()
	if hist != nil {
		hist.ObserveSince(start)
	}
}

// Poll scrapes reg every interval until stop closes. Run it on its own
// goroutine; it returns when stopped.
func (db *DB) Poll(reg *telemetry.Registry, interval time.Duration, stop <-chan struct{}, extra ...telemetry.Label) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			db.Scrape(reg, now, extra...)
		}
	}
}

// SeriesCount reports the resident series count.
func (db *DB) SeriesCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.series)
}

// Names lists the distinct stored metric names, sorted — the discovery
// surface behind GET /query with no series argument.
func (db *DB) Names() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	seen := map[string]bool{}
	for _, i := range db.order {
		seen[keyName(db.slots[i].key)] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// matched returns the series matching name and label equality matchers, in
// deterministic (insertion) order, plus each one's decoded points within
// [fromMs, toMs]. Decoding happens under db.mu; chunks are small and the
// alternative (copying encoded chunks out) costs more than it saves.
func (db *DB) matched(name string, matchers map[string]string, fromMs, toMs int64) []seriesPoints {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []seriesPoints
	for _, i := range db.order {
		s := &db.slots[i]
		if keyName(s.key) != name {
			continue
		}
		labels := keyLabels(s.key)
		if !labelsMatch(labels, matchers) {
			continue
		}
		sp := seriesPoints{labels: labels}
		collect := func(c *chunk) {
			if c.n == 0 || c.maxT < fromMs || c.t0 > toMs {
				return
			}
			c.iter(func(t int64, v float64) bool {
				if t >= fromMs && t <= toMs {
					sp.pts = append(sp.pts, Point{T: t, V: v})
				}
				return t <= toMs
			})
		}
		for j := range s.sealed {
			collect(&s.sealed[j])
		}
		collect(&s.head)
		if len(sp.pts) > 0 {
			out = append(out, sp)
		}
	}
	return out
}

func labelsMatch(labels []telemetry.Label, matchers map[string]string) bool {
	if len(matchers) == 0 {
		return true
	}
	for k, want := range matchers {
		found := false
		for _, l := range labels {
			if l.Key == k {
				found = l.Value == want
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
