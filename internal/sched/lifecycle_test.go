package sched

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vital/internal/bitstream"
	"vital/internal/telemetry"
)

// exposition renders the controller's registry and returns the text with
// its series count.
func exposition(t *testing.T, ct *Controller) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := ct.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, f := range ct.Reg.Snapshot() {
		series += len(f.Series)
	}
	return buf.String(), series
}

// seriesIdentities strips an exposition down to what a scraper keys on:
// the # HELP / # TYPE lines and each sample's name{labels}, values dropped.
func seriesIdentities(expo string) map[string]bool {
	ids := map[string]bool{}
	for _, line := range strings.Split(expo, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, '}'); i >= 0 {
				line = line[:i+1]
			} else {
				line, _, _ = strings.Cut(line, " ")
			}
		}
		ids[line] = true
	}
	return ids
}

// TestSeriesLifecycle: a per-entity series exists exactly while the entity
// does. Before the controller emitted its series from one collector, every
// deploy registered 11 callback series under the app's name and nothing
// ever removed them, so 200 names left 2200 series behind for good.
func TestSeriesLifecycle(t *testing.T) {
	ct := NewController(testCluster())
	defer ct.Close()
	image := compileToBitstreams(t, "app1")
	if err := ct.Bitstreams.Store("app1", image); err != nil {
		t.Fatal(err)
	}

	idle, idleSeries := exposition(t, ct)
	if err := telemetry.ValidateExposition([]byte(idle)); err != nil {
		t.Fatalf("exposition with no app deployed is invalid: %v", err)
	}
	if strings.Contains(idle, `app="`) {
		t.Fatalf("per-app series with no app deployed:\n%s", idle)
	}

	// While an app is deployed, every series the exposition carried before
	// the collector — name, labels, help, type — is still there. The golden
	// file is the pre-collector exposition of this same state, values
	// stripped.
	if _, err := ct.Deploy("app1", 1<<20); err != nil {
		t.Fatal(err)
	}
	live, liveSeries := exposition(t, ct)
	if err := telemetry.ValidateExposition([]byte(live)); err != nil {
		t.Fatalf("exposition with an app deployed is invalid: %v", err)
	}
	if liveSeries != idleSeries+11 {
		t.Fatalf("deploying one app added %d series, want its 11", liveSeries-idleSeries)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "exposition_series.golden"))
	if err != nil {
		t.Fatal(err)
	}
	have := seriesIdentities(live)
	for want := range seriesIdentities(string(golden)) {
		if !have[want] {
			t.Errorf("exposition lost %q", want)
		}
	}
	if err := ct.Undeploy("app1"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("tenant%d.lenet", i)
		if err := ct.Bitstreams.Store(name, []*bitstream.Bitstream{image[0].Rebrand(name)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.Deploy(name, 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := ct.Undeploy(name); err != nil {
			t.Fatal(err)
		}
	}
	after, afterSeries := exposition(t, ct)
	if afterSeries != idleSeries {
		t.Fatalf("registry holds %d series after 200 deploy/undeploy cycles, %d before", afterSeries, idleSeries)
	}
	if got, want := strings.Count(after, "\n"), strings.Count(idle, "\n"); got != want {
		t.Fatalf("exposition is %d lines after 200 deploy/undeploy cycles, %d before", got, want)
	}
}
