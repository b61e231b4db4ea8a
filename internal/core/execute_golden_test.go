package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vital/internal/workload"
)

var updateExecGolden = flag.Bool("update", false, "rewrite testdata/execute_golden.json from the current data plane")

// streamDesigns are the apps of vitalperf's execute_stream workload,
// deployed in this order on an empty default cluster.
var streamDesigns = []string{"lenet-S", "nin-M", "lenet-L"}

// deployStream compiles and deploys streamDesigns on a fresh default stack.
func deployStream(tb testing.TB) (*Stack, []*CompiledApp) {
	tb.Helper()
	s := NewStack(nil)
	tb.Cleanup(s.Controller.Close)
	var apps []*CompiledApp
	for _, design := range streamDesigns {
		app, err := s.CompileSpec(context.Background(), design, design)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Deploy(app, 1<<30); err != nil {
			tb.Fatal(err)
		}
		apps = append(apps, app)
	}
	return s, apps
}

// TestExecuteGolden pins the full model-time output of Execute — every
// ExecutionStats field, the per-class and per-segment TrafficReport
// included — on the execute_stream placements and on the board-spanning
// placement of TestExecuteAcrossFPGAs. The data plane is deterministic, so
// any change to the simulator must leave this file byte-identical.
// Regenerate with: go test ./internal/core -run TestExecuteGolden -update
func TestExecuteGolden(t *testing.T) {
	type run struct {
		Name  string          `json:"name"`
		Stats *ExecutionStats `json:"stats"`
	}
	var runs []run

	s, apps := deployStream(t)
	for _, app := range apps {
		stats, err := s.ExecuteByName(app.Name, 10000)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{fmt.Sprintf("%s/tokens=10000", app.Name), stats})
	}

	span := NewStack(nil)
	defer span.Controller.Close()
	app, _ := compileSpec(t, span, "lenet", workload.Medium)
	for b := 0; b < 4; b++ {
		free := span.Controller.DB.FreeOnBoard(b)
		if err := span.Controller.DB.Claim("filler", free[:13]); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := span.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.MultiFPGA {
		t.Fatal("expected a multi-FPGA deployment")
	}
	stats, err := span.Execute(app, dep, 5000)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"lenet-M/across-fpgas/tokens=5000", stats})

	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "execute_golden.json")
	if *updateExecGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Execute output differs from %s (rerun with -update only if the model itself changed):\n%s", path, got)
	}
}

var execSink *ExecutionStats

// BenchmarkExecute measures one Execute call of each execute_stream app:
// tokens=2 is the control-path workloads' call, tokens=10000 the
// data-plane workload's.
func BenchmarkExecute(b *testing.B) {
	s, apps := deployStream(b)
	for _, tokens := range []uint64{2, 10000} {
		for _, app := range apps {
			b.Run(fmt.Sprintf("tokens=%d/%s", tokens, app.Name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stats, err := s.ExecuteByName(app.Name, tokens)
					if err != nil {
						b.Fatal(err)
					}
					execSink = stats
				}
			})
		}
	}
}
