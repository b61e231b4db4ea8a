package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vital/internal/verify"
)

// fillBoard claims every free block of a board under a filler tenant.
func fillBoard(t *testing.T, ct *Controller, board int, app string) {
	t.Helper()
	free := ct.DB.FreeOnBoard(board)
	if len(free) == 0 {
		return
	}
	if err := ct.DB.Claim(app, free); err != nil {
		t.Fatal(err)
	}
}

// TestInjectFaultEvacuates is the deterministic failover scenario of the
// acceptance criteria: apps spread over at least two boards, one board
// fails, and every affected app must be fully re-placed on healthy boards
// with the invariants intact.
func TestInjectFaultEvacuates(t *testing.T) {
	ct := NewController(testCluster())
	// 6 apps × 3 blocks = 18 > 15 (one board), so placements spill onto a
	// second board.
	const apps = 6
	for i := 0; i < apps; i++ {
		storeSynthetic(t, ct, fmt.Sprintf("t%d", i), 3)
	}
	used := map[int]bool{}
	for i := 0; i < apps; i++ {
		dep, err := ct.Deploy(fmt.Sprintf("t%d", i), 1<<28)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range BoardsOf(dep.Blocks) {
			used[b] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("test needs apps on ≥2 boards, got %v", used)
	}

	ev, err := ct.InjectFault(0, FaultFail)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Health != Failed || ct.DB.Health(0) != Failed {
		t.Fatalf("board 0 health = %v / %v, want failed", ev.Health, ct.DB.Health(0))
	}
	if len(ev.Apps) == 0 {
		t.Fatal("board 0 hosted apps but the evacuation report is empty")
	}
	for _, ae := range ev.Apps {
		if ae.Undeployed {
			t.Fatalf("capacity was sufficient, yet %q was undeployed: %s", ae.App, ae.Detail)
		}
	}
	// Every app must still be fully deployed, entirely off board 0, with
	// the resource database agreeing block by block.
	for i := 0; i < apps; i++ {
		app := fmt.Sprintf("t%d", i)
		dep, ok := ct.Deployment(app)
		if !ok {
			t.Fatalf("%s lost during evacuation", app)
		}
		if len(dep.Blocks) != 3 {
			t.Fatalf("%s holds %d blocks after evacuation, want 3", app, len(dep.Blocks))
		}
		for _, blk := range dep.Blocks {
			if blk.Board == 0 {
				t.Fatalf("%s still has block %v on the failed board", app, blk)
			}
			if owner := ct.DB.Owner(blk); owner != app {
				t.Fatalf("block %v owned by %q, want %q", blk, owner, app)
			}
		}
		if dep.Primary == 0 {
			t.Fatalf("%s's primary still points at the failed board", app)
		}
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("post-evacuation state fails verification: %v", rep.Err())
	}
	health := ct.Health()
	if health.AllHealthy {
		t.Fatal("health report claims all healthy with a failed board")
	}
	if health.Boards[0].Health != Failed || health.Boards[0].FreeBlocks != 0 {
		t.Fatalf("health[0] = %+v, want failed with 0 allocatable blocks", health.Boards[0])
	}
}

// TestEvacuationInsufficientCapacity exercises the fallback: when the
// healthy remainder cannot absorb the stranded blocks, the app is
// undeployed and the loss reported via EventEvacuate.
func TestEvacuationInsufficientCapacity(t *testing.T) {
	ct := NewController(testCluster())
	for b := 1; b < 4; b++ {
		fillBoard(t, ct, b, "filler")
	}
	storeSynthetic(t, ct, "victim", 3)
	if _, err := ct.Deploy("victim", 1<<28); err != nil {
		t.Fatal(err)
	}
	ev, err := ct.InjectFault(0, FaultFail)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Apps) != 1 || !ev.Apps[0].Undeployed {
		t.Fatalf("evacuation report = %+v, want victim undeployed", ev.Apps)
	}
	if _, ok := ct.Deployment("victim"); ok {
		t.Fatal("victim still deployed after capacity-insufficient evacuation")
	}
	found := false
	for _, e := range ct.Events(0) {
		if e.Kind == EventEvacuate && e.App == "victim" && strings.Contains(e.Detail, "undeployed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EventEvacuate failure detail logged: %+v", ct.Events(0))
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("post-fallback state fails verification: %v", rep.Err())
	}
}

// TestHealthAwareAdmission: degraded boards accept no new placements, and
// when only unhealthy capacity remains Deploy reports both sentinels.
func TestHealthAwareAdmission(t *testing.T) {
	ct := NewController(testCluster())
	storeSynthetic(t, ct, "a", 2)
	if _, err := ct.InjectFault(0, FaultDegrade); err != nil {
		t.Fatal(err)
	}
	dep, err := ct.Deploy("a", 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range dep.Blocks {
		if blk.Board == 0 {
			t.Fatalf("block %v placed on the degraded board", blk)
		}
	}
	if err := ct.Undeploy("a"); err != nil {
		t.Fatal(err)
	}
	for b := 1; b < 4; b++ {
		if _, err := ct.InjectFault(b, FaultDegrade); err != nil {
			t.Fatal(err)
		}
	}
	_, err = ct.Deploy("a", 1<<28)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("deploy on all-degraded cluster: err = %v, want ErrNoCapacity", err)
	}
	if !errors.Is(err, ErrBoardUnhealthy) {
		t.Fatalf("free blocks are stranded, yet err = %v does not wrap ErrBoardUnhealthy", err)
	}
	if _, err := ct.InjectFault(2, FaultRecover); err != nil {
		t.Fatal(err)
	}
	dep, err = ct.Deploy("a", 1<<28)
	if err != nil {
		t.Fatalf("deploy after recovery: %v", err)
	}
	if boards := BoardsOf(dep.Blocks); len(boards) != 1 || boards[0] != 2 {
		t.Fatalf("placement went to %v, want the recovered board 2", boards)
	}
}

// TestRelocateTargetUnhealthy: explicit relocation onto a non-healthy
// board is refused with the sentinel.
func TestRelocateTargetUnhealthy(t *testing.T) {
	ct := NewController(testCluster())
	storeSynthetic(t, ct, "a", 1)
	if _, err := ct.Deploy("a", 1<<28); err != nil {
		t.Fatal(err)
	}
	// Snapshot a free block of board 3 before degrading it (afterwards its
	// free list reads empty by design).
	target := ct.DB.FreeOnBoard(3)[0]
	if _, err := ct.InjectFault(3, FaultDegrade); err != nil {
		t.Fatal(err)
	}
	if err := ct.Relocate("a", 0, target); !errors.Is(err, ErrBoardUnhealthy) {
		t.Fatalf("relocation onto degraded board: err = %v, want ErrBoardUnhealthy", err)
	}
}

// TestDeploySentinelErrors: name conflicts and capacity exhaustion carry
// distinguishable sentinels for the API layer.
func TestDeploySentinelErrors(t *testing.T) {
	ct := NewController(testCluster())
	storeSynthetic(t, ct, "a", 1)
	storeSynthetic(t, ct, "huge", 61) // cluster holds 60
	if _, err := ct.Deploy("a", 1<<28); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Deploy("a", 1<<28); !errors.Is(err, ErrAlreadyDeployed) {
		t.Fatalf("double deploy: err = %v, want ErrAlreadyDeployed", err)
	}
	if _, err := ct.Deploy("huge", 1<<28); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversized deploy: err = %v, want ErrNoCapacity", err)
	}
}

// TestPrimaryMigration: failing the board that holds an app's memory
// domain and virtual NIC must re-create both on a healthy board.
func TestPrimaryMigration(t *testing.T) {
	ct := NewController(testCluster())
	storeSynthetic(t, ct, "a", 2)
	dep, err := ct.Deploy("a", 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	oldPrimary := dep.Primary
	ev, err := ct.InjectFault(oldPrimary, FaultFail)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Apps) != 1 || !ev.Apps[0].PrimaryMoved {
		t.Fatalf("evacuation report = %+v, want primary_moved", ev.Apps)
	}
	dep2, ok := ct.Deployment("a")
	if !ok {
		t.Fatal("app lost")
	}
	if dep2.Primary == oldPrimary {
		t.Fatal("primary not migrated off the failed board")
	}
	if dep2.VNIC == nil || dep2.VNIC.App != "a" {
		t.Fatalf("vNIC not re-attached on the new primary: %+v", dep2.VNIC)
	}
	// The domain exists on the new primary, at the original quota, and is
	// gone from the failed board.
	if dom, ok := ct.Cluster.Boards[dep2.Primary].Mem.Domain("a"); !ok || dom.QuotaBytes != 1<<28 {
		t.Fatalf("memory domain on new primary: present=%v", ok)
	}
	if _, ok := ct.Cluster.Boards[oldPrimary].Mem.Domain("a"); ok {
		t.Fatal("stale memory domain left on the failed board")
	}
	// The failed board's switch really dropped the NIC: a fresh attach for
	// the same app succeeds there.
	if _, err := ct.Cluster.Boards[oldPrimary].Net.AttachNIC("a"); err != nil {
		t.Fatalf("stale vNIC left on the failed board: %v", err)
	}
	ct.Cluster.Boards[oldPrimary].Net.DetachNIC("a")
	if err := ct.Undeploy("a"); err != nil {
		t.Fatalf("undeploy after migration: %v", err)
	}
}

// TestFaultPlan: parsing and deterministic application.
func TestFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan(" 1:fail, 2:degraded ,1:recover,")
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultStep{{1, FaultFail}, {2, FaultDegrade}, {1, FaultRecover}}
	if len(plan.Steps) != len(want) {
		t.Fatalf("steps = %+v", plan.Steps)
	}
	for i, s := range want {
		if plan.Steps[i] != s {
			t.Fatalf("step %d = %+v, want %+v", i, plan.Steps[i], s)
		}
	}
	for _, bad := range []string{"1", "x:fail", "1:explode"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("ParseFaultPlan(%q) accepted", bad)
		}
	}

	// Two identical controllers driven by the same plan end in identical
	// states and produce identical evacuation reports.
	run := func() (string, []BoardHealth) {
		ct := NewController(testCluster())
		for i := 0; i < 4; i++ {
			storeSynthetic(t, ct, fmt.Sprintf("t%d", i), 3)
			if _, err := ct.Deploy(fmt.Sprintf("t%d", i), 1<<28); err != nil {
				t.Fatal(err)
			}
		}
		evs, err := ct.ApplyFaultPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), ct.DB.HealthSnapshot()
	}
	evs1, h1 := run()
	evs2, h2 := run()
	if fmt.Sprintf("%+v", h1) != fmt.Sprintf("%+v", h2) {
		t.Fatalf("health diverged: %v vs %v", h1, h2)
	}
	if evs1 != evs2 {
		t.Fatalf("evacuation reports diverged:\n%s\n%s", evs1, evs2)
	}
	if _, err := NewController(testCluster()).ApplyFaultPlan(FaultPlan{Steps: []FaultStep{{9, FaultFail}}}); err == nil {
		t.Fatal("fault plan with a nonexistent board accepted")
	}
}

// TestVerifyFlagsUnevacuatedFailedBoard: setting health directly (past the
// evacuation machinery) leaves deployments on a failed board, which the
// verifier must flag as a board-availability violation.
func TestVerifyFlagsUnevacuatedFailedBoard(t *testing.T) {
	ct := NewController(testCluster())
	storeSynthetic(t, ct, "a", 2)
	dep, err := ct.Deploy("a", 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.DB.SetHealth(dep.Blocks[0].Board, Failed); err != nil {
		t.Fatal(err)
	}
	rep := ct.Verify()
	if rep.OK() || !rep.Has(verify.InvariantAvailability) {
		t.Fatalf("verify = %v, want a board-availability violation", rep.Err())
	}
}

// TestEventLogRing: the log keeps the newest `limit` events in
// chronological order (internal/ring pins that the backing array is
// reused) while the per-kind totals keep counting.
func TestEventLogRing(t *testing.T) {
	l := newEventLogWithLimit(4)
	for i := 0; i < 10; i++ {
		l.add(EventDeploy, fmt.Sprintf("a%d", i), "")
	}
	got := l.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("a%d", 6+i); e.App != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, e.App, want)
		}
	}
	if got := l.Snapshot(2); len(got) != 2 || got[1].App != "a9" || got[0].App != "a8" {
		t.Fatalf("Snapshot(2) = %+v", got)
	}
	if n, ev := len(l.ring.Last(0)), l.ring.Evicted(); n != 4 || ev != 6 {
		t.Fatalf("ring holds %d events after evicting %d, want 4 after 6", n, ev)
	}
	if l.Counts()[EventDeploy] != 10 {
		t.Fatalf("counts = %v", l.Counts())
	}
	// An empty log snapshots cleanly.
	if got := newEventLogWithLimit(4).Snapshot(0); len(got) != 0 {
		t.Fatalf("empty snapshot = %+v", got)
	}
}

// TestFaultStress races tenant churn against fault injection and recovery:
// deployments, undeployments, board failures (with evacuation) and
// recoveries all interleave. Run with -race (see `make faultstress`). The
// final state — after recovering every board — must verify clean.
func TestFaultStress(t *testing.T) {
	ct := NewController(testCluster())
	const tenants = 10
	for i := 0; i < tenants; i++ {
		storeSynthetic(t, ct, fmt.Sprintf("t%d", i), 1+i%3)
	}
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app := fmt.Sprintf("t%d", i)
			for round := 0; round < 6; round++ {
				dep, err := ct.Deploy(app, 1<<26)
				if err != nil {
					continue // full or unhealthy: expected under faults
				}
				for _, blk := range dep.Blocks {
					if owner := ct.DB.Owner(blk); owner != app && owner != "" {
						t.Errorf("block %v owned by %q while deployed as %q", blk, owner, app)
					}
				}
				_ = ct.Undeploy(app) // may already be evacuated away: fine
			}
		}(i)
	}
	// Fault injector: fail and recover boards 1..3 (board 0 stays healthy
	// so evacuations usually have somewhere to go).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 8; round++ {
			b := 1 + round%3
			if _, err := ct.InjectFault(b, FaultFail); err != nil {
				t.Errorf("InjectFault(%d, fail): %v", b, err)
			}
			if _, err := ct.InjectFault(b, FaultRecover); err != nil {
				t.Errorf("InjectFault(%d, recover): %v", b, err)
			}
		}
	}()
	// Auditor: the verifier must be safe (and clean) mid-flight — the
	// evacuation invariant holds at every instant, not just at rest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 10; round++ {
			if rep := ct.Verify(); !rep.OK() {
				t.Errorf("invariants violated mid-churn: %v", rep.Err())
			}
		}
	}()
	wg.Wait()
	for b := 0; b < 4; b++ {
		if _, err := ct.InjectFault(b, FaultRecover); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tenants; i++ {
		_ = ct.Undeploy(fmt.Sprintf("t%d", i))
	}
	if st := ct.Status(); st.UsedBlocks != 0 || len(st.Apps) != 0 {
		t.Fatalf("state leaked after fault churn: %+v", st)
	}
	if rep := ct.Verify(); !rep.OK() {
		t.Fatalf("final state fails verification: %v", rep.Err())
	}
	for _, b := range ct.Cluster.Boards {
		if err := b.Mem.CheckIsolation(); err != nil {
			t.Fatal(err)
		}
	}
}
