package telemetry

import (
	"net/http"
	"strings"
	"testing"
)

func TestParseTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: 0x00f067aa0ba902b7, Sampled: true}
	tp := sc.TraceParent()
	if tp != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("TraceParent() = %q", tp)
	}
	got, err := ParseTraceParent(tp)
	if err != nil {
		t.Fatalf("ParseTraceParent(%q): %v", tp, err)
	}
	if got != sc {
		t.Fatalf("round trip = %+v, want %+v", got, sc)
	}

	// Unsampled round trip keeps the flag clear.
	sc.Sampled = false
	got, err = ParseTraceParent(sc.TraceParent())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled {
		t.Fatalf("unsampled context parsed as sampled")
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, err := ParseTraceParent(valid); err != nil {
		t.Fatalf("sanity: valid header rejected: %v", err)
	}
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"not a header", "garbage"},
		{"three fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7"},
		{"five fields", valid + "-extra"},
		{"version too short", "0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"version too long", "000-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"version uppercase", "0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"version ff forbidden", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"trace id short", "00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01"},
		{"trace id long", "00-4bf92f3577b34da6a3ce929d0e0e47366-00f067aa0ba902b7-01"},
		{"trace id uppercase", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"trace id non-hex", "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01"},
		{"trace id all zero", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"span id short", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01"},
		{"span id long", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b77-01"},
		{"span id uppercase", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01"},
		{"span id non-hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bz-01"},
		{"span id all zero", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"flags too short", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1"},
		{"flags too long", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011"},
		{"flags non-hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x"},
		{"flags uppercase", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0F"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseTraceParent(tc.in)
			if err == nil {
				t.Fatalf("ParseTraceParent(%q) accepted, got %+v", tc.in, sc)
			}
			if sc.Valid() {
				t.Fatalf("rejected parse returned a valid context %+v", sc)
			}
		})
	}
}

func TestTraceParentInvalidContextSerializesEmpty(t *testing.T) {
	for _, sc := range []SpanContext{
		{},
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"}, // no span
		{SpanID: 7}, // no trace
		{TraceID: strings.Repeat("0", 32), SpanID: 7},             // all-zero trace
		{TraceID: strings.Repeat("A", 32), SpanID: 7},             // uppercase
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e47", SpanID: 0x2a}, // short
	} {
		if tp := sc.TraceParent(); tp != "" {
			t.Errorf("invalid context %+v serialized to %q", sc, tp)
		}
	}
}

func TestExtractTraceParentFallback(t *testing.T) {
	h := http.Header{}
	if _, ok := ExtractTraceParent(h); ok {
		t.Fatal("extract from empty headers reported ok")
	}
	h.Set(TraceParentHeader, "00-borked")
	if _, ok := ExtractTraceParent(h); ok {
		t.Fatal("extract of malformed header reported ok")
	}
	h.Set(TraceParentHeader, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	sc, ok := ExtractTraceParent(h)
	if !ok || sc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || sc.SpanID != 0x00f067aa0ba902b7 || !sc.Sampled {
		t.Fatalf("extract = %+v, %v", sc, ok)
	}
}

func TestInjectTraceParent(t *testing.T) {
	h := http.Header{}
	InjectTraceParent(h, nil)
	if h.Get(TraceParentHeader) != "" {
		t.Fatal("nil span injected a header")
	}
	tr := NewTracer(4)
	sp := tr.Start("op")
	InjectTraceParent(h, sp)
	sc, err := ParseTraceParent(h.Get(TraceParentHeader))
	if err != nil {
		t.Fatalf("injected header does not parse: %v", err)
	}
	if sc.TraceID != sp.TraceID() || sc.SpanID != sp.Context().SpanID {
		t.Fatalf("injected %+v, span context %+v", sc, sp.Context())
	}
	sp.End()
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	tr := NewTracer(8)
	sc := SpanContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: 0x2a, Sampled: true}
	sp := tr.StartRemote("server", sc)
	if sp.TraceID() != sc.TraceID {
		t.Fatalf("remote child trace = %s, want %s", sp.TraceID(), sc.TraceID)
	}
	sp.End()
	td, ok := tr.Get(sc.TraceID)
	if !ok {
		t.Fatal("remote segment not retained")
	}
	if len(td.AllSpans) != 1 || td.AllSpans[0].Parent != sc.SpanID {
		t.Fatalf("segment spans = %+v, want one span with parent %#x", td.AllSpans, sc.SpanID)
	}

	// An invalid remote context degrades to a fresh root.
	root := tr.StartRemote("server", SpanContext{})
	if root.TraceID() == "" || root.TraceID() == sc.TraceID {
		t.Fatalf("fallback root trace = %q", root.TraceID())
	}
	root.End()
}
