package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceWritePrometheus is the fmt-based text writer the append writer
// replaced, kept as the reference model its output must match byte for
// byte: one Fprintf per line, labels sorted with sort.Slice and joined
// with strings.Join, histograms flattened by refExpand.
func referenceWritePrometheus(r *Registry, w io.Writer) error {
	bw := bufio.NewWriter(w)
	point := func(name string, labels []Label, v float64, ex *Exemplar) {
		refWriteSample(bw, name, labels, v, ex)
	}
	for _, f := range r.walk() {
		if f.fam.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.fam.name, escapeHelp(f.fam.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.fam.name, f.fam.typ)
		for _, s := range f.series {
			refExpand(s, f.fam.name, point)
		}
	}
	return bw.Flush()
}

// referenceSamples is Samples over refExpand.
func referenceSamples(r *Registry) []Sample {
	var out []Sample
	for _, f := range r.walk() {
		for _, s := range f.series {
			refExpand(s, f.fam.name, func(name string, labels []Label, v float64, _ *Exemplar) {
				out = append(out, Sample{Name: name, Labels: labels, Value: v})
			})
		}
	}
	return out
}

// refExpand is the histogram flattener as it was: a fresh label slice per
// bucket with le appended last, le formatted from the histogram's own
// ladder on every call.
func refExpand(s *series, name string, point func(name string, labels []Label, v float64, ex *Exemplar)) {
	if s.hist == nil {
		point(name, s.labels, s.load(), nil)
		return
	}
	cum, count, sum := s.hist.snapshot()
	for i := range cum {
		le := "+Inf"
		if i < len(s.hist.uppers) {
			le = refFormatFloat(s.hist.uppers[i])
		}
		labels := append(append(make([]Label, 0, len(s.labels)+1), s.labels...), Label{Key: "le", Value: le})
		point(name+"_bucket", labels, float64(cum[i]), s.hist.exemplars[i].Load())
	}
	point(name+"_sum", s.labels, sum, nil)
	point(name+"_count", s.labels, float64(count), nil)
}

func refWriteSample(w io.Writer, name string, labels []Label, value float64, ex *Exemplar) {
	suffix := ""
	if ex != nil {
		suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(ex.TraceID), refFormatFloat(ex.Value))
	}
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s %s%s\n", name, refFormatFloat(value), suffix)
		return
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	parts := make([]string, len(sorted))
	for i, l := range sorted {
		parts[i] = l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	fmt.Fprintf(w, "%s{%s} %s%s\n", name, strings.Join(parts, ","), refFormatFloat(value), suffix)
}

func refFormatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// referenceSignature is the series signature as it was built: a sorted
// copy of the labels, strconv.Quote per value, a strings.Builder.
func referenceSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := labels
	if len(ls) > 1 {
		ls = append([]Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// The key pool straddles "le" ("l", "la", "ld" sort before it; "lf",
// "lz", "m" after), so a bucket's le lands mid-set as often as at an end.
var refKeys = []string{"_x", "Zeta", "a", "app", "board", "k_9", "l", "la", "ld", "lf", "lz", "m", "route", "z"}

// refText pieces build label values, trace IDs and help strings; the
// three the format escapes are among them, as are characters it does not.
var refText = []string{"a", "Z", "0", " ", `\`, `"`, "\n", "\t", "é", "{", "}", ",", "=", "#", `\n`, "\x00"}

var refValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 3, 1e-7, 1e21, 123456789,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-310,
	math.NaN(), math.Inf(+1), math.Inf(-1),
}

func refString(rng *rand.Rand, max int) string {
	var b strings.Builder
	for n := rng.Intn(max + 1); n > 0; n-- {
		b.WriteString(refText[rng.Intn(len(refText))])
	}
	return b.String()
}

func refValue(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return refValues[rng.Intn(len(refValues))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-12))
}

// refKeySet picks 0 to 10 distinct keys in random order.
func refKeySet(rng *rand.Rand) []string {
	perm := rng.Perm(len(refKeys))[:rng.Intn(11)]
	keys := make([]string, len(perm))
	for i, p := range perm {
		keys[i] = refKeys[p]
	}
	return keys
}

func refLabels(rng *rand.Rand) []Label {
	keys := refKeySet(rng)
	labels := make([]Label, len(keys))
	for i, k := range keys {
		labels[i] = L(k, refString(rng, 6))
	}
	return labels
}

// refLadder is nil (DefBuckets) or a custom ascending ladder that may
// start negative or subnormal.
func refLadder(rng *rand.Rand) []float64 {
	if rng.Intn(4) == 0 {
		return nil
	}
	starts := []float64{5e-324, 2.5e-310, -3, 0, 1e-6, 0.1, 7}
	ladder := []float64{starts[rng.Intn(len(starts))]}
	for n := rng.Intn(9); n > 0; n-- {
		last := ladder[len(ladder)-1]
		ladder = append(ladder, last+math.Abs(last)*rng.Float64()*4+rng.Float64()+1e-300)
	}
	return ladder
}

// randomRegistry builds a seeded registry covering every way a series is
// made: counter, gauge and histogram handles (custom ladders, exemplars),
// Desc collectors, and GaugeFunc/CounterFunc, with values and labels drawn
// from the pools above.
func randomRegistry(seed int64) *Registry {
	rng := rand.New(rand.NewSource(seed))
	r := NewRegistry()
	for f := 3 + rng.Intn(5); f > 0; f-- {
		name := fmt.Sprintf("vital_ref_%d_total", f)
		help := refString(rng, 8)
		n := 1 + rng.Intn(12)
		switch rng.Intn(5) {
		case 0:
			for i := 0; i < n; i++ {
				r.Counter(name, help, refLabels(rng)...).Add(uint64(rng.Int63n(1 << 50)))
			}
		case 1:
			for i := 0; i < n; i++ {
				r.Gauge(name, help, refLabels(rng)...).Set(refValue(rng))
			}
		case 2:
			ladder := refLadder(rng)
			for i := 0; i < n; i++ {
				h := r.Histogram(name, help, ladder, refLabels(rng)...)
				for k := rng.Intn(12); k > 0; k-- {
					if rng.Intn(2) == 0 {
						h.ObserveExemplar(refValue(rng), refString(rng, 10))
					} else {
						h.Observe(refValue(rng))
					}
				}
			}
		case 3:
			keys := refKeySet(rng)
			desc := r.GaugeDesc
			if rng.Intn(2) == 0 {
				desc = r.CounterDesc
			}
			d := desc(name, help, keys...)
			type emitted struct {
				v      float64
				values []string
			}
			var samples []emitted
			for i := 0; i < n; i++ {
				values := make([]string, len(keys))
				for j := range values {
					values[j] = refString(rng, 6)
				}
				samples = append(samples, emitted{refValue(rng), values})
			}
			r.Collect(func(emit Emit) {
				for _, s := range samples {
					emit(d, s.v, s.values...)
				}
			})
		case 4:
			register := r.GaugeFunc
			if rng.Intn(2) == 0 {
				register = r.CounterFunc
			}
			for i := 0; i < n; i++ {
				v := refValue(rng)
				register(name, help, func() float64 { return v }, refLabels(rng)...)
			}
		}
	}
	return r
}

// The append writer, Samples and signature must reproduce the fmt-based
// reference exactly on seeded random registries — escapes, NaN/±Inf/-0,
// subnormals, custom ladders, exemplars, 0–10 labels around le — and on
// a gateway-shaped registry large enough to span many flush chunks.
func TestWritePrometheusMatchesReference(t *testing.T) {
	check := func(name string, r *Registry) {
		t.Helper()
		var got, want bytes.Buffer
		if err := r.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceWritePrometheus(r, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", name, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, reference %d", name, len(gl), len(wl))
		}
		gs, ws := r.Samples(), referenceSamples(r)
		if len(gs) != len(ws) {
			t.Fatalf("%s: %d samples, reference %d", name, len(gs), len(ws))
		}
		for i := range gs {
			g, w := gs[i], ws[i]
			same := g.Name == w.Name && len(g.Labels) == len(w.Labels) &&
				math.Float64bits(g.Value) == math.Float64bits(w.Value)
			for j := 0; same && j < len(g.Labels); j++ {
				same = g.Labels[j] == w.Labels[j]
			}
			if !same {
				t.Fatalf("%s: sample %d = %+v, reference %+v", name, i, g, w)
			}
		}
		for _, f := range r.walk() {
			for _, s := range f.series {
				if want := referenceSignature(s.labels); s.sig != want {
					t.Fatalf("%s: signature %q, reference %q", name, s.sig, want)
				}
			}
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		check(fmt.Sprintf("seed %d", seed), randomRegistry(seed))
	}
	check("gateway", gatewayRegistry(64))
}

// A scrape's allocations must not grow with the number of handle series:
// 10 and 1 000 series in the same families cost the same allocations.
func TestWritePrometheusAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		r := NewRegistry()
		for i := 0; i < n; i++ {
			id := strconv.Itoa(i)
			r.Counter("vital_test_requests_total", "Requests.", L("route", id), L("code", "200")).Inc()
			r.Gauge("vital_test_depth", "Depth.", L("board", id)).Set(float64(i) / 3)
			h := r.Histogram("vital_test_seconds", "Latency.", nil, L("route", id))
			h.ObserveExemplar(float64(i)*1e-4, "trace-\""+id)
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if large > small {
		t.Fatalf("WritePrometheus allocates %.0f times over 1000 series per family, %.0f over 10: allocations grow with series", large, small)
	}
}

// A walk's allocations must not grow with the tenant count of the
// gateway-shaped registry, whose per-tenant gauges are one-series
// collectors: their signatures are rendered once, at registration, and
// their walked series come from one slab.
func TestWalkAllocsFlatInOneSeriesCollectors(t *testing.T) {
	allocs := func(tenants int) (walk, write float64) {
		r := gatewayRegistry(tenants)
		walk = testing.AllocsPerRun(20, func() { r.walk() })
		write = testing.AllocsPerRun(20, func() {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		return walk, write
	}
	smallWalk, smallWrite := allocs(8)
	largeWalk, largeWrite := allocs(256)
	if largeWalk > smallWalk || largeWrite > smallWrite {
		t.Fatalf("walk allocates %.0f times at 256 tenants, %.0f at 8; WritePrometheus %.0f and %.0f: allocations grow with tenants",
			largeWalk, smallWalk, largeWrite, smallWrite)
	}
}
