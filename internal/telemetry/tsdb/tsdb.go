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
	"slices"
	"sort"
	"strconv"
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

// memSeries is the in-memory state of one stored series.
type memSeries struct {
	name   string
	labels []telemetry.Label // sorted by key
	chunks []*chunk          // oldest first; the last chunk is active
	lastT  int64             // newest appended timestamp (ms)
}

// DB is the store. All methods are safe for concurrent use; one mutex
// guards the series table (scrapes are periodic and queries read-mostly,
// so contention is negligible next to the encode work itself).
type DB struct {
	opts Options

	mu        sync.Mutex
	series    map[string]*memSeries
	order     []string // insertion-ordered keys, for deterministic iteration
	appended  uint64   // total samples ever appended
	evictions uint64   // chunks dropped by retention or the ring cap
	bytes     int      // encoded bytes across every resident chunk

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
	return &DB{opts: opts, series: map[string]*memSeries{}}
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

// key renders the series identity: name plus the sorted label signature.
func key(name string, labels []telemetry.Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns labels sorted by key (copying; inputs are shared).
func sortLabels(labels []telemetry.Label) []telemetry.Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]telemetry.Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Append records one sample for (name, labels) at t. Labels need not be
// sorted. Out-of-order timestamps (t older than the series' newest) are
// dropped — the scraper is the only writer and time moves forward; a
// replayed clock that regressed would otherwise corrupt delta windows.
func (db *DB) Append(name string, labels []telemetry.Label, t time.Time, v float64) {
	ls := sortLabels(labels)
	k := key(name, ls)
	ms := t.UnixMilli()
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[k]
	if !ok {
		s = &memSeries{name: name, labels: ls}
		db.series[k] = s
		db.order = append(db.order, k)
	}
	if s.lastT != 0 && ms < s.lastT {
		return
	}
	db.appendLocked(s, ms, v)
}

func (db *DB) appendLocked(s *memSeries, ms int64, v float64) {
	if len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].n >= db.opts.ChunkSamples {
		s.chunks = append(s.chunks, &chunk{})
	}
	active := s.chunks[len(s.chunks)-1]
	before := len(active.buf)
	active.append(ms, v)
	db.bytes += len(active.buf) - before
	s.lastT = ms
	db.appended++
	// Retire expired chunks (never the active one): past the retention
	// horizon, or beyond the ring cap.
	cutoff := ms - db.opts.Retention.Milliseconds()
	drop := 0
	for drop < len(s.chunks)-1 && (s.chunks[drop].maxT < cutoff || len(s.chunks)-drop > db.opts.MaxChunks) {
		drop++
	}
	if drop > 0 {
		db.bytes -= encodedBytes(s.chunks[:drop])
		s.chunks = append([]*chunk(nil), s.chunks[drop:]...)
		db.evictions += uint64(drop)
	}
}

// encodedBytes sums the encoded bytes of chunks.
func encodedBytes(chunks []*chunk) int {
	n := 0
	for _, c := range chunks {
		n += len(c.buf)
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
	for _, k := range db.order {
		if s := db.series[k]; s.lastT < cutoff {
			db.evictions += uint64(len(s.chunks))
			db.bytes -= encodedBytes(s.chunks)
			delete(db.series, k)
			continue
		}
		keep = append(keep, k)
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
	for _, s := range db.series {
		seen[s.name] = true
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
	for _, k := range db.order {
		s := db.series[k]
		if s.name != name || !labelsMatch(s.labels, matchers) {
			continue
		}
		sp := seriesPoints{labels: s.labels}
		for _, c := range s.chunks {
			if c.n == 0 || c.maxT < fromMs || c.t0 > toMs {
				continue
			}
			c.iter(func(t int64, v float64) bool {
				if t >= fromMs && t <= toMs {
					sp.pts = append(sp.pts, Point{T: t, V: v})
				}
				return t <= toMs
			})
		}
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
