package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vital/internal/telemetry"
)

func TestCompileSpecIdempotentAndConflict(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	ctx := context.Background()

	app, err := s.CompileSpec(ctx, "lenet-S", "acct.lenet")
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "acct.lenet" || app.CacheHit {
		t.Fatalf("first compile: name=%q hit=%v", app.Name, app.CacheHit)
	}
	if got := s.Controller.CacheStats().Misses; got != 1 {
		t.Fatalf("misses after first compile = %d, want 1", got)
	}

	// Same (app, design): the registered artifacts come back, nothing runs.
	again, err := s.CompileSpec(ctx, "lenet-S", "acct.lenet")
	if err != nil {
		t.Fatal(err)
	}
	if again != app {
		t.Fatal("idempotent repeat returned a different app object")
	}
	if got := s.Controller.CacheStats().Misses; got != 1 {
		t.Fatalf("misses after repeat = %d, want 1", got)
	}

	// Same design under a new name: a cache hit and a rebrand, no synthesis.
	other, err := s.CompileSpec(ctx, "lenet-S", "other.lenet")
	if err != nil {
		t.Fatal(err)
	}
	if !other.CacheHit {
		t.Fatal("known design under a new name was not a cache hit")
	}
	if got := s.Controller.CacheStats().Misses; got != 1 {
		t.Fatalf("misses after rename = %d, want 1", got)
	}
	k1, ok1 := s.DesignKeyOf("acct.lenet")
	k2, ok2 := s.DesignKeyOf("other.lenet")
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("design keys differ for the same design: %v %v", k1, k2)
	}

	// Re-binding the name to a structurally different design is refused.
	if _, err := s.CompileSpec(ctx, "lenet-M", "acct.lenet"); !errors.Is(err, ErrDesignConflict) {
		t.Fatalf("rebind error = %v, want ErrDesignConflict", err)
	}

	// Bad specs are rejected before anything registers.
	if _, err := s.CompileSpec(ctx, "warp9-S", "x"); err == nil {
		t.Fatal("bad benchmark accepted")
	}
	if _, ok := s.App("x"); ok {
		t.Fatal("failed compile left a registry entry")
	}

	// An empty app name defaults to the spec string.
	def, err := s.CompileSpec(ctx, "svhn-S", "")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "svhn-S" {
		t.Fatalf("defaulted name = %q, want svhn-S", def.Name)
	}
}

// TestCloseReleasesCompiledApps checks that a closed stack holds no
// compiled design: neither the named-app registry nor the compile cache
// keeps one, so a caller that keeps the stack does not pin its netlists.
func TestCloseReleasesCompiledApps(t *testing.T) {
	s := NewStack(nil)
	ctx := context.Background()
	if _, err := s.CompileSpec(ctx, "lenet-S", "acct.lenet"); err != nil {
		t.Fatal(err)
	}
	s.Controller.Close()
	if _, ok := s.App("acct.lenet"); ok {
		t.Fatal("closed stack still registers acct.lenet")
	}
	if n := s.Controller.CacheStats().Entries; n != 0 {
		t.Fatalf("closed stack's compile cache holds %d entries, want 0", n)
	}
	// The stack stays usable: the name compiles again, cold.
	app, err := s.CompileSpec(ctx, "lenet-S", "acct.lenet")
	if err != nil {
		t.Fatal(err)
	}
	if app.CacheHit {
		t.Fatal("compile after Close was served from the emptied cache")
	}
}

func TestExecuteByName(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()

	if _, err := s.ExecuteByName("ghost", 1); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app error = %v, want ErrUnknownApp", err)
	}

	app, err := s.CompileSpec(context.Background(), "lenet-S", "t0.lenet-S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteByName("t0.lenet-S", 1); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("undeployed app error = %v, want ErrNotDeployed", err)
	}

	if _, err := s.Deploy(app, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := s.ExecuteByName("t0.lenet-S", 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.Tokens != 3 {
		t.Fatalf("execution stats = %+v", stats)
	}
}

// TestExecuteReleasesDMAWindow: Execute maps a DMA window into the app's
// memory domain per call and used never to unmap it, so under the default
// 1 GiB quota the 513th execute of a deployment failed. The window is
// released on return; the model-time results do not move.
func TestExecuteReleasesDMAWindow(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	const name, tokens = "t0.lenet-M", 64 // four blocks, so channels carry traffic
	app, err := s.CompileSpec(context.Background(), "lenet-M", name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(app, 1<<30); err != nil {
		t.Fatal(err)
	}
	allocated := func() float64 {
		for _, f := range s.Controller.Reg.Snapshot() {
			if f.Name != "vital_mem_allocated_bytes" {
				continue
			}
			for _, ser := range f.Series {
				if ser.Labels["app"] == name {
					return ser.Value
				}
			}
		}
		t.Fatalf("no vital_mem_allocated_bytes{app=%q} series", name)
		return 0
	}
	before := allocated()
	var first *ExecutionStats
	for i := 0; i < 600; i++ {
		stats, err := s.ExecuteByName(name, tokens)
		if err != nil {
			t.Fatalf("execute %d: %v", i+1, err)
		}
		if after := allocated(); after != before {
			t.Fatalf("execute %d left %v bytes mapped, %v before", i+1, after, before)
		}
		if first == nil {
			first = stats
		} else if stats.Cycles != first.Cycles || stats.GatedCycles != first.GatedCycles {
			t.Fatalf("execute %d: cycles %d gated %d, first run %d and %d", i+1, stats.Cycles, stats.GatedCycles, first.Cycles, first.GatedCycles)
		}
	}
	// The values the leaking Execute produced for this placement.
	if first.Cycles != 70 || first.GatedCycles != 12 ||
		first.DRAMReadBytes != tokens*tokenBytes || first.DRAMWriteBytes != tokens*tokenBytes {
		t.Fatalf("stats moved: cycles %d gated %d dram %d/%d", first.Cycles, first.GatedCycles, first.DRAMReadBytes, first.DRAMWriteBytes)
	}
}

// TestExecuteRejectsTooManyTokens: a token count the cycle budget and the
// DRAM byte count cannot hold used to wrap (1<<62 tokens became a budget
// of a million cycles and a 500 "cycle budget exhausted"). POST /execute
// now answers 400 before anything runs, leaving the deployment's memory
// and the data-plane counters as they were.
func TestExecuteRejectsTooManyTokens(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	const name = "t0.lenet-M"
	app, err := s.CompileSpec(context.Background(), "lenet-M", name)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := s.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewStackHandler(s))
	defer srv.Close()
	execute := func(tokens uint64) int {
		raw, _ := json.Marshal(map[string]interface{}{"app": name, "tokens": tokens})
		resp, err := http.Post(srv.URL+"/execute", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Memory and data-plane series: everything an execute moves apart from
	// the request's own HTTP accounting.
	observed := func() []telemetry.FamilySnapshot {
		var out []telemetry.FamilySnapshot
		for _, f := range s.Controller.Reg.Snapshot() {
			for _, p := range []string{"vital_mem_", "vital_execute_", "vital_actor_", "vital_channel_", "vital_ring_"} {
				if strings.HasPrefix(f.Name, p) {
					out = append(out, f)
				}
			}
		}
		return out
	}
	mem := s.Cluster.Boards[dep.Blocks[0].Board].Mem
	domain, ok := mem.Domain(name)
	if !ok {
		t.Fatal("deployment has no memory domain")
	}

	if code := execute(2); code != http.StatusOK {
		t.Fatalf("execute 2 tokens: status %d", code)
	}
	before, beforeMem := observed(), domain.Stats()
	for _, tokens := range []uint64{MaxExecuteTokens + 1, 1 << 62, ^uint64(0)} {
		if code := execute(tokens); code != http.StatusBadRequest {
			t.Fatalf("execute %d tokens: status %d, want 400", tokens, code)
		}
	}
	if after := observed(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused execute moved the data-plane series:\n%+v\nthen\n%+v", before, after)
	}
	if after := domain.Stats(); after != beforeMem {
		t.Fatalf("a refused execute touched the app's memory: %+v then %+v", beforeMem, after)
	}
	if _, err := s.ExecuteByName(name, 1<<62); !errors.Is(err, ErrTooManyTokens) {
		t.Fatalf("ExecuteByName error = %v, want ErrTooManyTokens", err)
	}
	// The check has teeth: an accepted execute does move both.
	if code := execute(2); code != http.StatusOK {
		t.Fatalf("execute 2 tokens: status %d", code)
	}
	if reflect.DeepEqual(observed(), before) || domain.Stats() == beforeMem {
		t.Fatal("an accepted execute moved neither the data-plane series nor the app's memory")
	}
}
