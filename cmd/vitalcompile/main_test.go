package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/workload"
)

// TestRunBenchWritesNetlist compiles lenet-S in process: the report has one
// line per virtual block, and the written netlist parses back to the
// resources synthesis gives the design.
func TestRunBenchWritesNetlist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lenet-S.nl")
	var out bytes.Buffer
	if err := run([]string{"-bench", "lenet-S", "-netlist", path}, &out); err != nil {
		t.Fatal(err)
	}
	report := map[string]string{}
	blockLines := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  vb") {
			blockLines++
			if !strings.Contains(line, "wirelength") || !strings.Contains(line, "MHz") {
				t.Errorf("block line without P&R figures: %q", line)
			}
			continue
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			report[k] = strings.TrimSpace(v)
		}
	}
	blocks, err := strconv.Atoi(report["virtual blocks"])
	if err != nil || blocks < 1 {
		t.Fatalf("virtual blocks line %q:\n%s", report["virtual blocks"], out.String())
	}
	if blockLines != blocks {
		t.Fatalf("%d per-block lines for %d virtual blocks:\n%s", blockLines, blocks, out.String())
	}
	if report["netlist written"] != path {
		t.Fatalf("report names netlist %q, want %q", report["netlist written"], path)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, err := netlist.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ParseSpec("lenet-S")
	if err != nil {
		t.Fatal(err)
	}
	synth, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parsed.Resources(), synth.Netlist.Resources(); got != want {
		t.Fatalf("written netlist parses to %v, synthesis gives %v", got, want)
	}
	if report["resources"] != parsed.Resources().String() {
		t.Fatalf("report says resources %q, written netlist has %q", report["resources"], parsed.Resources())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-bench", "lenet-S", "-design", "d.json"},
		{"-bench", "nosuch-S"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
