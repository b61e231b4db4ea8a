package main

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vital/internal/gateway"
	"vital/internal/sched"
)

// TestScenarios runs every scenario but soak (which `make soaksmoke` runs
// under the race detector), each on a fresh stack, and checks that none
// reports a failure or leaves a goroutine running once its stack closes.
func TestScenarios(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	out := filepath.Join(t.TempDir(), "report.json")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"obs", nil},
		{"alerts", nil},
		{"trace", nil},
		{"replay", []string{"-trace", "testdata/example-trace.json", "-speed", "4", "-check", "-out", out}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs.Reset()
			scenario, err := scenarios[tc.name](tc.args)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			if failures := scenario(); len(failures) > 0 {
				t.Errorf("failures: %q\n%s", failures, logs.String())
			}
			// Connections the servers closed end their client-side
			// goroutines asynchronously; give them a moment.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines outlived the stack's close:\n%s", n-before, buf[:runtime.Stack(buf, true)])
			}
		})
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Events == 0 || rep.Failures != 0 {
		t.Errorf("replay report: %d events, %d failures (%v)", rep.Events, rep.Failures, err)
	}
}

// TestPacing checks that soak fails a deploy whose app is still deployed
// (its tenants never race themselves, so that is a defect) while replay
// waits the earlier instance's undeploy out.
func TestPacing(t *testing.T) {
	gw := gateway.Config{Tokens: map[string]string{token("alice"): "alice"}}
	failures := run(sched.Options{}, gw, func(st *stack) {
		req := map[string]string{"design": "lenet-S"}
		app, err := st.deploy("alice", req, soakPacing, nil)
		st.check(err)
		if _, err := st.deploy("alice", req, soakPacing, nil); err == nil || !strings.Contains(err.Error(), "already deployed") {
			st.fatalf("soak redeploying live %s: error %v, want already deployed", app, err)
		}
		undeployed := make(chan error, 1)
		go func() {
			time.Sleep(100 * time.Millisecond)
			undeployed <- st.post("alice", st.front+"/undeploy", map[string]string{"app": app})
		}()
		_, err = st.deploy("alice", req, replayPacing, nil)
		st.check(err)
		st.check(<-undeployed)
	})
	for _, f := range failures {
		t.Error(f)
	}
}

// TestFlags checks that each scenario rejects the flag values its run
// cannot honor, before booting anything, and accepts its defaults.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		ok   bool
	}{
		{"soak", nil, true},
		{"soak", []string{"-tenants", "0"}, false},
		{"soak", []string{"-concurrency", "0"}, false},
		{"soak", []string{"-ops", "-1"}, false},
		{"soak", []string{"-designs", "0"}, false},
		{"soak", []string{"-designs", "11"}, false},
		{"replay", []string{"-trace", "mix.json"}, true},
		{"replay", nil, false},
		{"replay", []string{"-trace", "mix.json", "-scrape", "0"}, false},
		{"replay", []string{"-trace", "mix.json", "-speed", "0"}, false},
		{"replay", []string{"-trace", "mix.json", "-format", "xml"}, false},
		{"obs", []string{"-phase", "all"}, false},
	} {
		_, err := scenarios[tc.name](tc.args)
		if (err == nil) != tc.ok {
			t.Errorf("%s %q: error %v, want ok=%v", tc.name, tc.args, err, tc.ok)
		}
	}
}
