package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"vital/internal/telemetry"
)

// referenceDB is the series table DB used to keep: one heap object per
// series, its own sorted copy of the labels, a quoted string key rendered
// on every append, and a slice of pointers to chunks. It stays as the
// model the slot table is checked against.
type referenceDB struct {
	opts      Options
	series    map[string]*refSeries
	order     []string
	appended  uint64
	evictions uint64
	bytes     int
	created   int // series ever stored
}

type refSeries struct {
	name   string
	labels []telemetry.Label
	chunks []*chunk
	lastT  int64
}

func newReferenceDB(opts Options) *referenceDB {
	return &referenceDB{opts: opts, series: map[string]*refSeries{}}
}

func refKey(name string, labels []telemetry.Label) string {
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

func (r *referenceDB) append(name string, labels []telemetry.Label, t time.Time, v float64) {
	var ls []telemetry.Label
	if len(labels) > 0 {
		ls = append([]telemetry.Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	}
	k := refKey(name, ls)
	ms := t.UnixMilli()
	s, ok := r.series[k]
	if !ok {
		s = &refSeries{name: name, labels: ls}
		r.series[k] = s
		r.order = append(r.order, k)
		r.created++
	}
	if s.lastT != 0 && ms < s.lastT {
		return
	}
	if len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].n >= r.opts.ChunkSamples {
		s.chunks = append(s.chunks, &chunk{})
	}
	active := s.chunks[len(s.chunks)-1]
	before := len(active.buf)
	active.append(ms, v)
	r.bytes += len(active.buf) - before
	s.lastT = ms
	r.appended++
	cutoff := ms - r.opts.Retention.Milliseconds()
	drop := 0
	for drop < len(s.chunks)-1 && (s.chunks[drop].maxT < cutoff || len(s.chunks)-drop > r.opts.MaxChunks) {
		drop++
	}
	if drop > 0 {
		for _, c := range s.chunks[:drop] {
			r.bytes -= len(c.buf)
		}
		s.chunks = append([]*chunk(nil), s.chunks[drop:]...)
		r.evictions += uint64(drop)
	}
}

func (r *referenceDB) scrape(reg *telemetry.Registry, now time.Time, extra ...telemetry.Label) {
	for _, smp := range reg.Samples() {
		labels := smp.Labels
		if len(extra) > 0 {
			labels = append(append(make([]telemetry.Label, 0, len(labels)+len(extra)), labels...), extra...)
		}
		r.append(smp.Name, labels, now, smp.Value)
	}
	cutoff := now.UnixMilli() - r.opts.Retention.Milliseconds()
	keep := r.order[:0]
	for _, k := range r.order {
		if s := r.series[k]; s.lastT < cutoff {
			r.evictions += uint64(len(s.chunks))
			for _, c := range s.chunks {
				r.bytes -= len(c.buf)
			}
			delete(r.series, k)
			continue
		}
		keep = append(keep, k)
	}
	r.order = keep
}

// storedSeries is one series as both stores report it: name, sorted
// labels and every decoded sample, chunk by chunk.
type storedSeries struct {
	Name   string
	Labels []telemetry.Label
	Chunks [][]Point
}

func decodeChunk(c *chunk) []Point {
	var pts []Point
	c.iter(func(t int64, v float64) bool {
		pts = append(pts, Point{T: t, V: v})
		return true
	})
	return pts
}

func (r *referenceDB) dump() []storedSeries {
	var out []storedSeries
	for _, k := range r.order {
		s := r.series[k]
		ss := storedSeries{Name: s.name, Labels: s.labels}
		for _, c := range s.chunks {
			ss.Chunks = append(ss.Chunks, decodeChunk(c))
		}
		out = append(out, ss)
	}
	return out
}

func (db *DB) dump() []storedSeries {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []storedSeries
	for _, i := range db.order {
		s := &db.slots[i]
		ss := storedSeries{Name: keyName(s.key), Labels: keyLabels(s.key)}
		for j := range s.sealed {
			ss.Chunks = append(ss.Chunks, decodeChunk(&s.sealed[j]))
		}
		ss.Chunks = append(ss.Chunks, decodeChunk(&s.head))
		out = append(out, ss)
	}
	return out
}

// TestStoreMatchesReference drives the slot table and the reference
// table through the same seeded stream — direct appends with unsorted
// and awkward labels, out-of-order samples, registry scrapes with an
// extra tier label, apps that come and go so series expire and their
// slots are reused, and chunk rings that hit both retention and the cap —
// and checks after every step that both hold the same series in the same
// order with the same samples, counters and byte totals.
func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{Retention: 20 * time.Second, ChunkSamples: 1 + rng.Intn(4), MaxChunks: 1 + rng.Intn(4)}
		db, ref := New(opts), newReferenceDB(opts)

		reg := telemetry.NewRegistry()
		apps := []string{"a", "b", `c"q`, "d\x00e", strings.Repeat("long", 40)}
		live := make([]bool, len(apps))
		used := reg.GaugeDesc("vital_test_used", "Blocks held, per app.", "app", "board")
		reg.Collect(func(emit telemetry.Emit) {
			for i, app := range apps {
				if live[i] {
					emit(used, float64(i)*1.5, app, strconv.Itoa(i%2))
				}
			}
		})
		names := []string{"x", "y_total", "z"}
		values := []string{"", "0", "1", "é", "a=b,c"}
		sec := 0.0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				var labels []telemetry.Label
				for _, k := range rng.Perm(3)[:rng.Intn(4)] {
					labels = append(labels, telemetry.L(string(rune('k'+k)), values[rng.Intn(len(values))]))
				}
				at := sec
				if rng.Intn(8) == 0 {
					at -= rng.Float64() * 3 // out of order: dropped by both
				}
				name, v := names[rng.Intn(len(names))], rng.NormFloat64()
				db.Append(name, labels, ts(at), v)
				ref.append(name, labels, ts(at), v)
			case op < 8:
				j := rng.Intn(len(apps))
				live[j] = !live[j]
				reg.Gauge("vital_test_level", "A plain gauge.").Set(rng.Float64())
				db.Scrape(reg, ts(sec), telemetry.L("tier", "backend"))
				ref.scrape(reg, ts(sec), telemetry.L("tier", "backend"))
			default:
				sec += rng.Float64() * 15 // long enough gaps for series to expire
			}
			sec += 0.25

			if got, want := db.dump(), ref.dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: stores differ\n got %+v\nwant %+v", seed, step, got, want)
			}
			db.mu.Lock()
			got := [4]uint64{db.appended, db.evictions, uint64(db.bytes), uint64(len(db.series))}
			db.mu.Unlock()
			want := [4]uint64{ref.appended, ref.evictions, uint64(ref.bytes), uint64(len(ref.series))}
			if got != want {
				t.Fatalf("seed %d step %d: appended/evictions/bytes/series %v, reference %v", seed, step, got, want)
			}
		}
		db.mu.Lock()
		slots, free := len(db.slots), len(db.free)
		db.mu.Unlock()
		if free+len(ref.order) != slots {
			t.Fatalf("seed %d: %d slots, %d free, %d live series", seed, slots, free, len(ref.order))
		}
		if ref.created <= slots || ref.evictions == 0 {
			t.Fatalf("seed %d: %d series in %d slots, %d chunks evicted — the stream no longer reaches every path", seed, ref.created, slots, ref.evictions)
		}
	}
}

// TestKeyRoundTrip checks that a series key gives back its name and
// labels, and that different series never share a key, even when a label
// value carries the bytes another encoding would use as separators.
func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels []telemetry.Label
	}{
		{"x", nil},
		{"x", []telemetry.Label{telemetry.L("a", "")}},
		{"x", []telemetry.Label{telemetry.L("a", "b")}},
		{"x", []telemetry.Label{telemetry.L("a", "b"), telemetry.L("c", "d")}},
		{"x", []telemetry.Label{telemetry.L("a", `b",c="d`)}},
		{"x", []telemetry.Label{telemetry.L("a", "b\x01\x01c\x01d")}},
		{"x\x01\x01a", nil},
		{strings.Repeat("n", 300), []telemetry.Label{telemetry.L(strings.Repeat("k", 200), strings.Repeat("v", 70000))}},
	}
	seen := map[string]int{}
	for i, c := range cases {
		k := string(appendKey(nil, c.name, c.labels))
		if j, dup := seen[k]; dup {
			t.Fatalf("cases %d and %d share key %q", j, i, k)
		}
		seen[k] = i
		if got := keyName(k); got != c.name {
			t.Fatalf("case %d: name %q, want %q", i, got, c.name)
		}
		if got := keyLabels(k); !reflect.DeepEqual(got, c.labels) {
			t.Fatalf("case %d: labels %q, want %q", i, got, c.labels)
		}
		// A query reads the name of every stored series.
		if allocs := testing.AllocsPerRun(10, func() { keyName(k) }); allocs != 0 {
			t.Fatalf("case %d: keyName allocates %v objects", i, allocs)
		}
	}
}

// TestAppendExistingSeriesAllocatesNothing guards the scrape path: a
// sample of a series already stored sorts and renders its key in the
// DB's scratch and allocates nothing of its own (the chunk's growth is
// amortised below one allocation per sample).
func TestAppendExistingSeriesAllocatesNothing(t *testing.T) {
	db := New(Options{})
	labels := []telemetry.Label{telemetry.L("tenant", "t-17"), telemetry.L("app", "lenet-S"), telemetry.L("board", "3")}
	sec := 0.0
	db.Append("vital_mem_bytes", labels, ts(sec), 1)
	allocs := testing.AllocsPerRun(100, func() {
		sec++
		db.Append("vital_mem_bytes", labels, ts(sec), sec)
	})
	if allocs != 0 {
		t.Fatalf("appending to an existing series allocates %v objects per sample, want 0", allocs)
	}
}

// TestNewSeriesCostsTwoObjects pins what a stored series costs the
// garbage collector's mark phase: two live heap objects, its key and its
// active chunk's bytes, however many labels it has. The slot table, the
// order and the index are a few large objects shared by every series.
func TestNewSeriesCostsTwoObjects(t *testing.T) {
	const n = 4096
	apps := make([]string, n)
	for i := range apps {
		apps[i] = "app-" + strconv.Itoa(i)
	}
	db := New(Options{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, app := range apps {
		db.Append("vital_mem_bytes", []telemetry.Label{
			telemetry.L("app", app), telemetry.L("tenant", "t"), telemetry.L("board", "0"),
		}, ts(1), math.Pi)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	perSeries := float64(after.HeapObjects-before.HeapObjects) / n
	if perSeries > 2.1 {
		t.Fatalf("a stored series holds %.2f live heap objects, want at most 2 (key and chunk bytes)", perSeries)
	}
}
