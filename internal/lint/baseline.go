package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A baseline is a checked-in snapshot of known findings. Findings that
// match a baseline entry are reported as suppressed rather than failing
// the run, which lets a new analyzer land with its existing debt recorded
// (and reviewed) instead of blocking the whole tree. Matching ignores
// line numbers — code above a finding moving it down must not resurrect
// it — and compares analyzer, repo-relative file and exact message. The
// policy is the same as //lint:ignore: every suppression is visible in
// review, and the baseline shrinking over time is the point.

// BaselineEntry identifies one accepted finding.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // repo-relative, forward slashes
	Message  string `json:"message"`
}

// Baseline is the persisted form.
type Baseline struct {
	// Comment documents the file's purpose for readers of the JSON.
	Comment string          `json:"comment,omitempty"`
	Entries []BaselineEntry `json:"entries"`
}

// LoadBaseline reads a baseline file. A missing file is an empty
// baseline, so the flag can point at a path that does not exist yet.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Baseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &b, nil
}

// Filter splits diags into kept (not in the baseline) and suppressed.
// Each baseline entry suppresses at most as many findings as it appears —
// an entry listed once hides one instance of a duplicated diagnostic.
func (b *Baseline) Filter(root string, diags []Diagnostic) (kept, suppressed []Diagnostic) {
	budget := map[BaselineEntry]int{}
	for _, e := range b.Entries {
		budget[e]++
	}
	for _, d := range diags {
		key := BaselineEntry{Analyzer: d.Analyzer, File: relPath(root, d.Pos.Filename), Message: d.Message}
		if budget[key] > 0 {
			budget[key]--
			suppressed = append(suppressed, d)
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}

// WriteBaseline persists the current findings as the new baseline,
// sorted for stable diffs.
func WriteBaseline(w io.Writer, root string, diags []Diagnostic) error {
	b := Baseline{
		Comment: "vitallint baseline: accepted findings, matched by analyzer+file+message (line-insensitive). Regenerate with vitallint -write-baseline; keep this shrinking.",
	}
	for _, d := range diags {
		b.Entries = append(b.Entries, BaselineEntry{
			Analyzer: d.Analyzer,
			File:     relPath(root, d.Pos.Filename),
			Message:  d.Message,
		})
	}
	sort.Slice(b.Entries, func(i, j int) bool {
		a, c := b.Entries[i], b.Entries[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
	if b.Entries == nil {
		b.Entries = []BaselineEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// relPath renders path relative to root with forward slashes, falling
// back to the path unchanged when it is not under root.
func relPath(root, path string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(path)
}
