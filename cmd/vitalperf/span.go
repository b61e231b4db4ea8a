package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one client-side interval recorded in a traced run: a step of a
// tenant cycle, an operator GET, or a compile stage. Spans of one request
// (one cycle, one operator tick, one compile) share Req; Parent is the ID
// of the span that caused this one, 0 for a root. Times are nanoseconds
// since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends. Each
// load-generator goroutine owns one (no locking on the request path); a
// nil recorder is tracing switched off, and every method is a no-op on it,
// so the untraced run executes the same client code minus the appends.
type recorder struct {
	epoch time.Time
	// base offsets this recorder's IDs so spans merged from several
	// recorders stay unique.
	base  int
	spans []span
}

// recorderIDStride separates the ID ranges of a run's recorders.
const recorderIDStride = 1 << 24

// newRecorder returns recorder number n of a run started at epoch.
func newRecorder(epoch time.Time, n int) *recorder {
	return &recorder{epoch: epoch, base: n * recorderIDStride}
}

// add records a finished span and returns its ID (0 when tracing is off).
func (r *recorder) add(name string, parent int, req uint64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := r.base + len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not known yet (a cycle that is about
// to cause children) and returns its ID; close sets its end.
func (r *recorder) open(name string, parent int, req uint64, start time.Time) int {
	return r.add(name, parent, req, start, start)
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-r.base-1].End = end.Sub(r.epoch).Nanoseconds()
}

// mergeSpans concatenates the recorders' spans in start order.
func mergeSpans(recs ...*recorder) []span {
	var all []span
	for _, r := range recs {
		if r != nil {
			all = append(all, r.spans...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that its direct
// children cover. Children may overlap each other (derived queue.wait and
// deploy spans sit on top of the polls that observed them) and may stick
// out of the parent; only the covered part inside the parent is taken off,
// and an overlap is taken off once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName groups self times by span name, in microseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e3)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
