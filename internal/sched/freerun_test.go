package sched

import (
	"fmt"
	"strings"
	"testing"

	"vital/internal/cluster"
	"vital/internal/verify"
)

func TestBoardRunsClaimReleaseShape(t *testing.T) {
	br := newBoardRuns(3, 5)
	if br.free != 15 || br.maxRun != 5 {
		t.Fatalf("fresh board: free=%d maxRun=%d", br.free, br.maxRun)
	}
	// Interior claim splits the die's run in two.
	if err := br.claim(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(br.dies[1]); got != "[{0 2} {3 2}]" {
		t.Fatalf("die 1 after interior claim: %s", got)
	}
	if br.free != 14 || br.maxRun != 5 {
		t.Fatalf("after claim: free=%d maxRun=%d", br.free, br.maxRun)
	}
	// End claims shrink without splitting.
	if err := br.claim(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := br.claim(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(br.dies[0]); got != "[{1 3}]" {
		t.Fatalf("die 0 after end claims: %s", got)
	}
	// Release merges with both neighbors.
	if err := br.release(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(br.dies[1]); got != "[{0 5}]" {
		t.Fatalf("die 1 after merging release: %s", got)
	}
	// Claiming a claimed block and releasing a free one are both index
	// corruption and must be refused.
	if err := br.claim(0, 0); err == nil {
		t.Fatal("claim of already-claimed block accepted")
	}
	if err := br.release(1, 2); err == nil {
		t.Fatal("release of free block accepted")
	}
	// Exhaust a die completely and rebuild it one block at a time.
	for i := 1; i < 4; i++ {
		if err := br.claim(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(br.dies[0]) != 0 {
		t.Fatalf("die 0 not empty: %v", br.dies[0])
	}
	for _, i := range []int{2, 0, 4, 1, 3} { // out-of-order releases
		if err := br.release(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(br.dies[0]); got != "[{0 5}]" {
		t.Fatalf("die 0 after full rebuild: %s", got)
	}
}

func TestClusterIndexDeterministicOrder(t *testing.T) {
	db := NewResourceDB(testCluster())
	// A fresh cluster has identical boards in every cell list; insertion
	// order (0..n-1) must win, so board 0 hosts the first placement.
	refs := db.contiguousAlloc(5)
	if len(refs) != 5 || refs[0].Board != 0 {
		t.Fatalf("fresh-cluster placement = %v, want board 0", refs)
	}
	// With board 1 made the tightest contiguous fit, best-fit must leave
	// the untouched boards' large holes alone.
	if err := db.Claim("carve", []cluster.GlobalBlockRef{blockRef(1, 0, 0), blockRef(1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	got := db.contiguousAlloc(3)
	if got[0].Board != 1 || got[0].Die != 0 || got[0].Index != 2 {
		t.Fatalf("best fit = %v, want board 1 die 0 index 2", got[0])
	}
}

func TestVerifyIndexDetectsDrift(t *testing.T) {
	db := NewResourceDB(testCluster())
	refs, err := Allocate(db, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Claim("a", refs); err != nil {
		t.Fatal(err)
	}
	if problems := db.VerifyIndex(); len(problems) != 0 {
		t.Fatalf("clean database reports drift: %v", problems)
	}
	// Corrupt the cached free counter behind the owner table's back.
	db.mu.Lock()
	db.runs[0].free++
	db.mu.Unlock()
	problems := db.VerifyIndex()
	if len(problems) == 0 {
		t.Fatal("corrupted free counter not detected")
	}
	if !strings.Contains(strings.Join(problems, "; "), "free") {
		t.Fatalf("drift report does not name the free counter: %v", problems)
	}
}

func TestControllerVerifyReportsIndexDrift(t *testing.T) {
	ct := NewController(testCluster())
	if rep := ct.Verify(); rep.Has(verify.InvariantFreeIndex) {
		t.Fatalf("fresh controller reports index drift: %v", rep.Err())
	}
	ct.DB.mu.Lock()
	ct.DB.runs[2].maxRun = 1 // lie about contiguity
	ct.DB.mu.Unlock()
	rep := ct.Verify()
	if !rep.Has(verify.InvariantFreeIndex) {
		t.Fatalf("index drift not reported: %v", rep.Err())
	}
}

func TestIndexConsistencyUnderChurn(t *testing.T) {
	db := NewResourceDB(testCluster())
	live := map[string]bool{}
	for i := 0; i < 300; i++ {
		switch {
		case i%17 == 0:
			_ = db.SetHealth(i%4, Degraded)
		case i%23 == 0:
			_ = db.SetHealth(i%4, Healthy)
		}
		name := fmt.Sprintf("churn-%d", i)
		if refs, err := Allocate(db, 1+i%9); err == nil {
			if err := db.Claim(name, refs); err != nil {
				t.Fatalf("churn %d: %v", i, err)
			}
			live[name] = true
		}
		if i%3 == 0 {
			victim := fmt.Sprintf("churn-%d", i/2)
			if live[victim] {
				db.ReleaseApp(victim)
				delete(live, victim)
			}
		}
		if problems := db.VerifyIndex(); len(problems) != 0 {
			t.Fatalf("index drifted at churn step %d: %v", i, problems)
		}
	}
	// Restore health and cross-check the counters against each other.
	for b := 0; b < 4; b++ {
		if err := db.SetHealth(b, Healthy); err != nil {
			t.Fatal(err)
		}
	}
	totalFree := 0
	for _, f := range db.FreeCount() {
		totalFree += f
	}
	if totalFree+db.UsedBlocks() != db.Cluster().TotalBlocks() {
		t.Fatalf("free %d + used %d != total %d", totalFree, db.UsedBlocks(), db.Cluster().TotalBlocks())
	}
}

func TestBoardStatsHealthGating(t *testing.T) {
	db := NewResourceDB(testCluster())
	if st := db.BoardStats()[1]; st.Free != 15 || st.LongestRun != 5 || st.FreeRuns != 3 || st.Used != 0 {
		t.Fatalf("fresh board: %+v", st)
	}
	if err := db.SetHealth(1, Degraded); err != nil {
		t.Fatal(err)
	}
	if st := db.BoardStats()[1]; st.Health != Degraded || st.Free != 0 || st.LongestRun != 0 || st.FreeRuns != 0 {
		t.Fatalf("degraded board offers %+v", st)
	}
	if db.Runs(1) != nil {
		t.Fatal("degraded board still lists free runs")
	}
	if db.FreeCount()[1] != 0 {
		t.Fatal("degraded board counted as allocatable")
	}
	// Recovery relinks the board with its runs intact.
	if err := db.SetHealth(1, Healthy); err != nil {
		t.Fatal(err)
	}
	if st := db.BoardStats()[1]; st.Free != 15 || st.LongestRun != 5 {
		t.Fatalf("recovered board: %+v", st)
	}
}
