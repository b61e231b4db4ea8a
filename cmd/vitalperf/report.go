package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// defaultSeconds is the measured window BENCHMARK.json asks for.
const defaultSeconds = 15

// report is what -all writes: where and how the runs were made, and
// every run.
type report struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Runs       []*result `json:"runs"`
}

func newReport(seed int64, seconds int) *report {
	return &report{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds,
	}
}

// commit is the revision the binary was built from, as the go tool
// stamped it; a build outside a git checkout has none.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// readReport loads a report file.
func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printResult prints one run: every metric by name with its unit and
// sample count, then the checks that failed.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  schedule %s\n", r.Workload, r.Seed, mode, r.ScheduleHash)
	row := func(m metric) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s %s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, m := range r.EndToEnd {
		row(m)
	}
	for _, m := range r.Layers {
		row(m)
	}
	if r.Overloaded {
		fmt.Fprintln(w, "  OVERLOADED: the generator fell behind its schedule; latencies are not comparable")
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// contractLine renders the run as the acceptance harness reads it: the
// gated end-to-end metrics of an untraced run, the gated per-layer metrics
// of a traced one.
func (r *result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, set := gatedEndToEnd, &r.e2e
	if r.Traced {
		defs, set = gatedPerLayer, &r.layer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := set.get(d.Name)
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", r.Workload, d.Name)
		}
		metrics[d.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Failures) == 0, r.Attempted, r.Failed, metrics})
}
