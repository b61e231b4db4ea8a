package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text format:
// families sorted by name, each preceded by its # HELP / # TYPE pair,
// histograms as cumulative _bucket{le=...} series plus _sum and _count.
// Every line is appended into one reused buffer, which goes to the
// buffered writer in flushChunk pieces; no line allocates, so a scrape's
// allocations do not grow with its series count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := &promWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, 2*flushChunk)}
	for _, f := range r.walk() {
		p.family(f.fam)
		for _, s := range f.series {
			p.labels = s.labels
			s.expand(f.fam.les, p.sample)
		}
	}
	_, _ = p.bw.Write(p.buf) // a write error is latched and returned by Flush
	return p.bw.Flush()
}

// flushChunk is the buffered size at which the writer hands its buffer on:
// bufio's default size, so each chunk goes straight to the underlying
// writer.
const flushChunk = 4096

// promWriter renders one exposition. name and labels are the family and
// series in progress.
type promWriter struct {
	bw     *bufio.Writer
	buf    []byte
	name   string
	labels []Label
}

// family starts a family: its # HELP line, when it has help, then # TYPE.
func (p *promWriter) family(f *family) {
	p.name = f.name
	b := p.buf
	if f.help != "" {
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = appendEscaped(b, f.help, false)
		b = append(b, '\n')
	}
	b = append(b, "# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.typ...)
	p.endLine(b)
}

// sample writes one `name{labels} value` line, labels sorted by key with a
// bucket's le placed among them by key. A non-nil exemplar appends the
// OpenMetrics-style `# {trace_id="..."} value` suffix linking the bucket to
// the trace that last landed in it.
func (p *promWriter) sample(suffix, le string, v float64, ex *Exemplar) {
	b := append(p.buf, p.name...)
	b = append(b, suffix...)
	var stack [stackLabels]Label
	ls := append(stack[:0], p.labels...)
	if le != "" {
		ls = append(ls, Label{Key: "le", Value: le})
	}
	if len(ls) > 0 {
		sortByKey(ls)
		b = append(b, '{')
		for i, l := range ls {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l.Key...)
			b = append(b, '=', '"')
			b = appendEscaped(b, l.Value, true)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = appendFloat(b, v)
	if ex != nil {
		b = append(b, ` # {trace_id="`...)
		b = appendEscaped(b, ex.TraceID, true)
		b = append(b, `"} `...)
		b = appendFloat(b, ex.Value)
	}
	p.endLine(b)
}

// endLine terminates the line appended to b and keeps it as the buffer,
// handing the buffer on once it holds a chunk.
func (p *promWriter) endLine(b []byte) {
	p.buf = append(b, '\n')
	if len(p.buf) >= flushChunk {
		_, _ = p.bw.Write(p.buf) // latched, as above
		p.buf = p.buf[:0]
	}
}

// appendFloat appends v as the text format writes a value: shortest 'g'
// form, with +Inf spelled out.
func appendFloat(b []byte, v float64) []byte {
	if math.IsInf(v, +1) {
		return append(b, "+Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscaped appends s escaped per the text format: \ and newline as
// \\ and \n, and in a label value (quote) " as \" — exactly those three.
// Go's %q would also emit escapes (\t, \x..) the format does not define,
// so the quoting is done by hand.
func appendEscaped(b []byte, s string, quote bool) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '\\':
			esc = '\\'
		case '\n':
			esc = 'n'
		case '"':
			if !quote {
				continue
			}
			esc = '"'
		default:
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, '\\', esc)
		start = i + 1
	}
	return append(b, s[start:]...)
}

// ValidateExposition is a strict parser for the Prometheus text format:
// the golden-file CI test and `make obssmoke` run every scrape through it
// so syntax drift (bad metric names, unescaped labels, non-monotone
// histogram buckets, missing HELP/TYPE pairs) fails the build. It checks:
//
//   - comment lines are well-formed # HELP / # TYPE with valid names;
//   - every family has at most one TYPE, declared before its samples, and
//     HELP and TYPE come in pairs;
//   - sample lines parse (name, optional {labels}, float value) with valid
//     metric and label names;
//   - histogram families have _bucket series with cumulative counts that
//     are monotone non-decreasing in le, a final le="+Inf" bucket equal to
//     _count, and a _sum sample;
//   - `# {...} value` exemplar suffixes appear only on _bucket samples
//     and carry well-formed labels and a parseable value.
func ValidateExposition(data []byte) error {
	v := &expValidator{
		typed:  map[string]MetricType{},
		helped: map[string]bool{},
		hists:  map[string]*histCheck{},
	}
	for i, line := range strings.Split(string(data), "\n") {
		if err := v.line(line); err != nil {
			return fmt.Errorf("telemetry: exposition line %d: %w", i+1, err)
		}
	}
	return v.finish()
}

type histCheck struct {
	// buckets holds (le, cumulative count) per label signature, in
	// appearance order.
	buckets map[string][]bucketSample
	counts  map[string]float64
	sums    map[string]bool
}

type bucketSample struct {
	le  float64
	cum float64
}

type expValidator struct {
	typed  map[string]MetricType
	helped map[string]bool
	hists  map[string]*histCheck
}

func (v *expValidator) line(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return v.comment(line)
	}
	return v.sample(line)
}

func (v *expValidator) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	kind, name := fields[1], fields[2]
	switch kind {
	case "HELP":
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		if v.helped[name] {
			return fmt.Errorf("duplicate HELP for %q", name)
		}
		v.helped[name] = true
	case "TYPE":
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		if len(fields) != 4 {
			return fmt.Errorf("TYPE line for %q missing a type", name)
		}
		switch MetricType(fields[3]) {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			return fmt.Errorf("unknown TYPE %q for %q", fields[3], name)
		}
		// A TYPE arriving after its family's samples is also caught here:
		// samples without a preceding TYPE are rejected outright, so a
		// late TYPE can only be a duplicate.
		if _, dup := v.typed[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		v.typed[name] = MetricType(fields[3])
	default:
		// Other comments are legal and ignored.
	}
	return nil
}

func (v *expValidator) sample(line string) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		if labels, rest, err = parseLabels(rest); err != nil {
			return err
		}
	}
	valStr := strings.TrimSpace(rest)
	// A trailing timestamp and/or `# {...} v` exemplar is legal; the
	// value is the first field.
	var trailer string
	if i := strings.IndexByte(valStr, ' '); i >= 0 {
		trailer = strings.TrimSpace(valStr[i+1:])
		valStr = valStr[:i]
	}
	value, err := parseValue(valStr)
	if err != nil {
		return fmt.Errorf("sample %q: %w", line, err)
	}
	base := histBase(name, v.typed)
	fam := name
	if base != "" {
		fam = base
	}
	if _, ok := v.typed[fam]; !ok {
		return fmt.Errorf("sample for %q without a preceding TYPE", name)
	}
	if trailer != "" {
		if !strings.HasPrefix(trailer, "#") {
			// A timestamp, possibly followed by an exemplar.
			ts := trailer
			if i := strings.IndexByte(trailer, ' '); i >= 0 {
				ts, trailer = trailer[:i], strings.TrimSpace(trailer[i+1:])
			} else {
				trailer = ""
			}
			if _, err := strconv.ParseFloat(ts, 64); err != nil {
				return fmt.Errorf("sample %q: bad timestamp %q", line, ts)
			}
		}
		if trailer != "" {
			if base == "" || !strings.HasSuffix(name, "_bucket") {
				return fmt.Errorf("sample %q: exemplar on a non-bucket sample", line)
			}
			if err := validateExemplar(trailer); err != nil {
				return fmt.Errorf("sample %q: %w", line, err)
			}
		}
	}
	if base != "" {
		v.histSample(base, name, labels, value)
	}
	return nil
}

// validateExemplar checks an exemplar suffix: `# {labels} value`, with
// valid label syntax and a parseable value (an optional exemplar
// timestamp may follow).
func validateExemplar(s string) error {
	s = strings.TrimSpace(strings.TrimPrefix(s, "#"))
	if !strings.HasPrefix(s, "{") {
		return fmt.Errorf("exemplar without labels near %q", s)
	}
	labels, rest, err := parseLabels(s)
	if err != nil {
		return fmt.Errorf("exemplar: %w", err)
	}
	if len(labels) == 0 {
		return fmt.Errorf("exemplar with empty label set")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("exemplar needs a value (and at most a timestamp), got %q", rest)
	}
	if _, err := parseValue(fields[0]); err != nil {
		return fmt.Errorf("exemplar: %w", err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("exemplar: bad timestamp %q", fields[1])
		}
	}
	return nil
}

// histBase maps a histogram's _bucket/_sum/_count sample name back to its
// family name, if that family was TYPEd histogram.
func histBase(name string, typed map[string]MetricType) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && typed[base] == TypeHistogram {
			return base
		}
	}
	return ""
}

func (v *expValidator) histSample(base, name string, labels map[string]string, value float64) {
	h := v.hists[base]
	if h == nil {
		h = &histCheck{buckets: map[string][]bucketSample{}, counts: map[string]float64{}, sums: map[string]bool{}}
		v.hists[base] = h
	}
	le := labels["le"]
	delete(labels, "le")
	sig := labelsSig(labels)
	switch {
	case strings.HasSuffix(name, "_bucket"):
		f := math.Inf(+1)
		if le != "+Inf" {
			f, _ = strconv.ParseFloat(le, 64)
		}
		h.buckets[sig] = append(h.buckets[sig], bucketSample{le: f, cum: value})
	case strings.HasSuffix(name, "_count"):
		h.counts[sig] = value
	case strings.HasSuffix(name, "_sum"):
		h.sums[sig] = true
	}
}

func (v *expValidator) finish() error {
	for base, h := range v.hists {
		for _, sig := range sortedSigs(h.buckets) {
			bs := h.buckets[sig]
			last := bs[len(bs)-1]
			if !math.IsInf(last.le, +1) {
				return fmt.Errorf("telemetry: histogram %s{%s}: last bucket le=%v, want +Inf", base, sig, last.le)
			}
			for i := 1; i < len(bs); i++ {
				if bs[i].le <= bs[i-1].le {
					return fmt.Errorf("telemetry: histogram %s{%s}: le not increasing at %v", base, sig, bs[i].le)
				}
				if bs[i].cum < bs[i-1].cum {
					return fmt.Errorf("telemetry: histogram %s{%s}: cumulative count decreases at le=%v", base, sig, bs[i].le)
				}
			}
			count, ok := h.counts[sig]
			if !ok {
				return fmt.Errorf("telemetry: histogram %s{%s}: missing _count", base, sig)
			}
			if count != last.cum {
				return fmt.Errorf("telemetry: histogram %s{%s}: _count %v != +Inf bucket %v", base, sig, count, last.cum)
			}
			if !h.sums[sig] {
				return fmt.Errorf("telemetry: histogram %s{%s}: missing _sum", base, sig)
			}
		}
	}
	for name := range v.typed {
		if !v.helped[name] {
			return fmt.Errorf("telemetry: metric %q has TYPE but no HELP", name)
		}
	}
	for name := range v.helped {
		if _, ok := v.typed[name]; !ok {
			return fmt.Errorf("telemetry: metric %q has HELP but no TYPE", name)
		}
	}
	return nil
}

func sortedSigs(m map[string][]bucketSample) []string {
	sigs := make([]string, 0, len(m))
	for sig := range m {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs
}

func labelsSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(labels[k])
	}
	return strings.Join(parts, ",")
}

func splitName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if !metricNameRe.MatchString(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	s = s[1:] // consume '{'
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed labels near %q", s)
		}
		key := s[:eq]
		if !labelNameRe.MatchString(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("unquoted label value near %q", s)
		}
		val, rest, err := unquoteLabel(s)
		if err != nil {
			return nil, "", err
		}
		labels[key] = val
		s = rest
	}
}

// unquoteLabel consumes a quoted label value honoring \\, \" and \n
// escapes, returning the value and the remaining input.
func unquoteLabel(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("truncated escape in %q", s)
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("bad escape \\%c in %q", s[i], s)
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value in %q", s)
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}
