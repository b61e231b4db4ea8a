package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "/repo/internal/sched/http.go", Line: 42, Column: 3},
			Analyzer: "lockorder",
			Message:  "holds sched.Controller.mu across a blocking operation: channel send",
		},
		{
			Pos:      token.Position{Filename: "/repo/cmd/vitald/main.go", Line: 70, Column: 3},
			Analyzer: "mapdeterminism",
			Message:  "printing inside range over map: output order is randomized",
		},
	}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, "/repo", diags); err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 2 {
		t.Fatalf("got %d entries", len(b.Entries))
	}
	if b.Entries[0].File != "cmd/vitald/main.go" || b.Entries[1].File != "internal/sched/http.go" {
		t.Fatalf("entries = %+v, want repo-relative files in sorted order", b.Entries)
	}

	// The baseline suppresses the same findings even when line numbers
	// move.
	shifted := make([]Diagnostic, len(diags))
	copy(shifted, diags)
	shifted[0].Pos.Line += 100
	kept, suppressed := b.Filter("/repo", shifted)
	if len(kept) != 0 || len(suppressed) != 2 {
		t.Fatalf("kept %d suppressed %d, want 0/2", len(kept), len(suppressed))
	}

	// A new finding is not suppressed.
	extra := append(shifted, Diagnostic{
		Pos:      token.Position{Filename: "/repo/x.go", Line: 1},
		Analyzer: "lockorder", Message: "new",
	})
	kept, suppressed = b.Filter("/repo", extra)
	if len(kept) != 1 || kept[0].Message != "new" || len(suppressed) != 2 {
		t.Fatalf("kept %v", kept)
	}

	// An entry suppresses only as many findings as it appears.
	dup := []Diagnostic{shifted[0], shifted[0]}
	kept, suppressed = b.Filter("/repo", dup)
	if len(kept) != 1 || len(suppressed) != 1 {
		t.Fatalf("duplicate handling: kept %d suppressed %d, want 1/1", len(kept), len(suppressed))
	}
}
