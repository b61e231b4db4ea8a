package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vital/internal/bitstream"
)

// storeSharedSynthetic registers n one-or-more-block bitstreams for an app
// out of a single pre-compiled image, so tests that need dozens of tenants
// pay for one synthesis run instead of one per tenant.
func storeSharedSynthetic(t *testing.T, ct *Controller, base *bitstream.Bitstream, app string, n int) {
	t.Helper()
	all := make([]*bitstream.Bitstream, n)
	for i := 0; i < n; i++ {
		img := *base
		img.App = app
		img.VirtualBlock = i
		all[i] = &img
	}
	if err := ct.Bitstreams.Store(app, all); err != nil {
		t.Fatal(err)
	}
}

func TestCompactAppEmitsEvent(t *testing.T) {
	ct := NewController(testCluster())
	// Same shape as TestCompactAppRemovesSpanning: "a" (4 blocks) is forced
	// to span boards 0 and 1, then board 3 frees up.
	for b, keep := range []int{13, 13, 14, 14} {
		free := ct.DB.FreeOnBoard(b)
		if err := ct.DB.Claim(fmt.Sprintf("filler%d", b), free[:keep]); err != nil {
			t.Fatal(err)
		}
	}
	storeSynthetic(t, ct, "a", 4)
	dep, err := ct.Deploy("a", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.MultiFPGA {
		t.Fatal("setup failed: app not spanning")
	}
	ct.DB.ReleaseApp("filler3")
	if did, err := ct.CompactApp("a"); err != nil || !did {
		t.Fatalf("did=%v err=%v", did, err)
	}
	var ev *Event
	for _, e := range ct.Events(0) {
		if e.Kind == EventCompact {
			e := e
			ev = &e
		}
	}
	if ev == nil {
		t.Fatal("compaction left no EventCompact in the audit log")
	}
	if ev.App != "a" {
		t.Fatalf("compact event names app %q, want \"a\"", ev.App)
	}
	if !strings.Contains(ev.Detail, "4 blocks moved onto board 3") {
		t.Fatalf("compact event detail = %q", ev.Detail)
	}
}

// fragmentDieZero deploys three tenants filling board 0 die 0, then
// undeploys the first and last, leaving free runs [0,1) and [3,5) around
// tenant x2 at indices 1-2 — the canonical mergeable gap.
func fragmentDieZero(t *testing.T, ct *Controller) {
	t.Helper()
	base := compileToBitstreams(t, "base")[0]
	storeSharedSynthetic(t, ct, base, "x1", 1)
	storeSharedSynthetic(t, ct, base, "x2", 2)
	storeSharedSynthetic(t, ct, base, "x3", 2)
	for _, app := range []string{"x1", "x2", "x3"} {
		if _, err := ct.Deploy(app, 1<<28); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []string{"x1", "x3"} {
		if err := ct.Undeploy(app); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDefragStepMergesRuns(t *testing.T) {
	ct := NewController(testCluster())
	fragmentDieZero(t, ct)
	if longest := ct.DB.BoardStats()[0].LongestRun; longest != 5 {
		// dies 1 and 2 are untouched, so the board-longest stays 5; the
		// fragmented die is visible through the run list instead.
		t.Fatalf("setup: longest run = %d", longest)
	}
	if runs := ct.DB.Runs(0); len(runs) != 4 {
		t.Fatalf("setup: board 0 has %d free runs, want 4 (2 fragments + 2 whole dies): %v", len(runs), runs)
	}
	moved, err := ct.DefragStep(10)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved %d blocks, want 2 (both of x2's)", moved)
	}
	// Die 0 merged back into one 5-run; x2 survived, relocated.
	if runs := ct.DB.Runs(0); len(runs) != 3 {
		t.Fatalf("board 0 still has %d free runs: %v", len(runs), runs)
	}
	dep, ok := ct.Deployment("x2")
	if !ok {
		t.Fatal("x2 lost during defragmentation")
	}
	for _, blk := range dep.Blocks {
		if ct.DB.Owner(blk) != "x2" {
			t.Fatalf("ownership lost for %v", blk)
		}
	}
	var sawDefrag bool
	for _, e := range ct.Events(0) {
		if e.Kind == EventDefrag && strings.Contains(e.Detail, "2 blocks relocated") {
			sawDefrag = true
		}
	}
	if !sawDefrag {
		t.Fatal("defrag pass left no EventDefrag in the audit log")
	}
	if problems := ct.DB.VerifyIndex(); len(problems) != 0 {
		t.Fatalf("index drifted: %v", problems)
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("invariants violated after defrag: %v", rep.Err())
	}
}

func TestDefragStepRespectsBudget(t *testing.T) {
	ct := NewController(testCluster())
	fragmentDieZero(t, ct)
	for step, want := range []int{1, 1, 0} {
		moved, err := ct.DefragStep(1)
		if err != nil {
			t.Fatal(err)
		}
		if moved != want {
			t.Fatalf("DefragStep(1) call %d moved %d, want %d", step, moved, want)
		}
	}
	if moved, err := ct.DefragStep(0); moved != 0 || err != nil {
		t.Fatalf("DefragStep(0) = %d, %v", moved, err)
	}
}

func TestDefragStepSkipsImmovableBlocks(t *testing.T) {
	ct := NewController(testCluster())
	// A raw ResourceDB claim (no deployment) sits between two free runs:
	// the defragmenter must skip it rather than loop or fail.
	if err := ct.DB.Claim("raw", ct.DB.FreeOnBoard(0)[1:3]); err != nil {
		t.Fatal(err)
	}
	moved, err := ct.DefragStep(10)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("moved %d blocks that belong to no deployment", moved)
	}
}

func TestEvalAlertsDrivesDefrag(t *testing.T) {
	th := DefaultAlertThresholds()
	th.FragmentationFor = 0 // fire on the first breached evaluation
	ct := NewControllerWithOptions(testCluster(), Options{Alerts: &th, DefragMoves: 8})
	base := compileToBitstreams(t, "base")[0]
	// Fill the whole cluster with one-block tenants, then undeploy the ones
	// at even indices: every die becomes free singles at 0/2/4 with movable
	// tenants at 1/3, so no free run anywhere exceeds one block.
	for k := 0; k < 60; k++ {
		app := fmt.Sprintf("f%d", k)
		storeSharedSynthetic(t, ct, base, app, 1)
		if _, err := ct.Deploy(app, 1<<24); err != nil {
			t.Fatalf("deploy %s: %v", app, err)
		}
	}
	for k := 0; k < 60; k++ {
		if k%5%2 == 0 {
			if err := ct.Undeploy(fmt.Sprintf("f%d", k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := ct.Placement().FragmentationIndex
	if before <= th.FragmentationMax {
		t.Fatalf("setup: fragmentation index %.2f not above threshold %.2f", before, th.FragmentationMax)
	}
	for i := 0; i < 5; i++ {
		ct.EvalAlerts()
	}
	after := ct.Placement().FragmentationIndex
	if after >= before {
		t.Fatalf("fragmentation index %.2f did not improve from %.2f", after, before)
	}
	var sawDefrag bool
	for _, e := range ct.Events(0) {
		if e.Kind == EventDefrag {
			sawDefrag = true
		}
	}
	if !sawDefrag {
		t.Fatal("firing fragmentation_high never triggered a defrag pass")
	}
	if problems := ct.DB.VerifyIndex(); len(problems) != 0 {
		t.Fatalf("index drifted: %v", problems)
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("invariants violated after alert-driven defrag: %v", rep.Err())
	}
}

// TestDeploySingleBoardRace pins the TOCTOU fix: two no-spanning tenants
// race for capacity that only exists after draining board 0. With the
// capacity check, the drain and the deployment under one ct.mu hold,
// exactly one must win; before the fix both could pass the check and the
// loser would deploy spanning or corrupt the drain. Run with -race.
func TestDeploySingleBoardRace(t *testing.T) {
	ct := NewController(testCluster())
	storeSynthetic(t, ct, "movable", 8)
	if _, err := ct.Deploy("movable", 1<<30); err != nil {
		t.Fatal(err)
	}
	for b := 1; b < 4; b++ {
		free := ct.DB.FreeOnBoard(b)
		if err := ct.DB.Claim("filler", free[:len(free)-4]); err != nil {
			t.Fatal(err)
		}
	}
	storeSynthetic(t, ct, "ls1", 10)
	storeSynthetic(t, ct, "ls2", 10)
	// 19 blocks are free in total but at most one board can ever hold 10,
	// and only after the movable tenant drains off it.
	deps := make([]*Deployment, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, app := range []string{"ls1", "ls2"} {
		wg.Add(1)
		go func(i int, app string) {
			defer wg.Done()
			deps[i], errs[i] = ct.DeploySingleBoard(app, 1<<28)
		}(i, app)
	}
	wg.Wait()
	wins := 0
	for i := range deps {
		if errs[i] == nil {
			wins++
			if deps[i].MultiFPGA {
				t.Fatalf("winner %d spans FPGAs", i)
			}
		}
	}
	if wins != 1 {
		t.Fatalf("%d single-board deployments won, want exactly 1 (errs: %v)", wins, errs)
	}
	if _, ok := ct.Deployment("movable"); !ok {
		t.Fatal("movable tenant lost in the race")
	}
	if problems := ct.DB.VerifyIndex(); len(problems) != 0 {
		t.Fatalf("index drifted: %v", problems)
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("invariants violated after race: %v", rep.Err())
	}
}

// TestConcurrentDefragSoak races tenant churn, the incremental
// defragmenter, alert evaluation and the verifier all at once. Run with
// -race; the final state must verify clean including the free-run index.
func TestConcurrentDefragSoak(t *testing.T) {
	th := DefaultAlertThresholds()
	th.FragmentationFor = 0
	ct := NewControllerWithOptions(testCluster(), Options{Alerts: &th, DefragMoves: 4})
	base := compileToBitstreams(t, "base")[0]
	const tenants = 10
	for i := 0; i < tenants; i++ {
		storeSharedSynthetic(t, ct, base, fmt.Sprintf("t%d", i), 1+i%4)
	}
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app := fmt.Sprintf("t%d", i)
			for round := 0; round < 6; round++ {
				if _, err := ct.Deploy(app, 1<<24); err != nil {
					continue // cluster momentarily full: expected
				}
				if err := ct.Undeploy(app); err != nil {
					t.Errorf("undeploy %s: %v", app, err)
				}
			}
		}(i)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				if _, err := ct.DefragStep(3); err != nil {
					t.Errorf("defrag step: %v", err)
				}
				ct.EvalAlerts()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 10; round++ {
			if rep := ct.Verify(); !rep.OK() {
				t.Errorf("invariants violated mid-soak: %v", rep.Err())
			}
		}
	}()
	wg.Wait()
	if st := ct.Status(); st.UsedBlocks != 0 || len(st.Apps) != 0 {
		t.Fatalf("state leaked after soak: %+v", st)
	}
	if problems := ct.DB.VerifyIndex(); len(problems) != 0 {
		t.Fatalf("index drifted after soak: %v", problems)
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("final state fails verification: %v", rep.Err())
	}
}
