package core

import (
	"context"
	"errors"
	"testing"
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
