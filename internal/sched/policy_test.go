package sched

import (
	"errors"
	"fmt"
	"testing"

	"vital/internal/cluster"
)

// carveBoard claims every block of one board except the listed free refs,
// shaping the board's free runs for a test scenario.
func carveBoard(t *testing.T, db *ResourceDB, app string, board int, free ...cluster.GlobalBlockRef) {
	t.Helper()
	keep := map[cluster.GlobalBlockRef]bool{}
	for _, f := range free {
		keep[f] = true
	}
	var refs []cluster.GlobalBlockRef
	dev := db.Cluster().Boards[board].Device
	for d := range dev.Dies {
		for i := 0; i < dev.BlocksPerDie; i++ {
			if ref := blockRef(board, d, i); !keep[ref] {
				refs = append(refs, ref)
			}
		}
	}
	if err := db.Claim(app, refs); err != nil {
		t.Fatal(err)
	}
}

// isContig reports whether an allocation is physically consecutive: one
// board, one die, ascending adjacent indices.
func isContig(refs []cluster.GlobalBlockRef) bool {
	for i := 1; i < len(refs); i++ {
		if refs[i].Board != refs[0].Board || refs[i].Die != refs[0].Die || refs[i].Index != refs[i-1].Index+1 {
			return false
		}
	}
	return true
}

func TestAllocatePolicyTable(t *testing.T) {
	cases := []struct {
		name       string
		setup      func(t *testing.T, db *ResourceDB)
		n          int
		wantErrIs  []error
		notErrIs   []error
		wantBoards []int
		wantContig bool
		wantFirst  *cluster.GlobalBlockRef
	}{
		{
			// The board already carved into is the tightest fit; the
			// untouched boards' full dies must survive.
			name: "best fit picks the tightest board",
			setup: func(t *testing.T, db *ResourceDB) {
				if err := db.Claim("carve", []cluster.GlobalBlockRef{blockRef(2, 0, 0), blockRef(2, 0, 1)}); err != nil {
					t.Fatal(err)
				}
			},
			n:          3,
			wantBoards: []int{2},
			wantContig: true,
			wantFirst:  refPtr(2, 0, 2),
		},
		{
			// Regression for the contiguity-blind allocator: with die 0
			// holding a 1-run and a 2-run, a 2-block request must land in
			// the 2-run, not straddle the hole at index 2.
			name: "small request not split across a hole",
			setup: func(t *testing.T, db *ResourceDB) {
				if err := db.Claim("carve", []cluster.GlobalBlockRef{blockRef(0, 0, 0), blockRef(0, 0, 2)}); err != nil {
					t.Fatal(err)
				}
			},
			n:          2,
			wantBoards: []int{0},
			wantContig: true,
			wantFirst:  refPtr(0, 0, 3),
		},
		{
			// No run fits 3 anywhere, but board 0 holds 4 free in total:
			// round 1b keeps the placement on one board.
			name: "packed fallback stays on one board",
			setup: func(t *testing.T, db *ResourceDB) {
				carveBoard(t, db, "fill0", 0, blockRef(0, 0, 0), blockRef(0, 0, 1), blockRef(0, 1, 0), blockRef(0, 1, 1))
				for b := 1; b < 4; b++ {
					carveBoard(t, db, fmt.Sprintf("fill%d", b), b, blockRef(b, 0, 0), blockRef(b, 0, 1))
				}
			},
			n:          3,
			wantBoards: []int{0},
			wantFirst:  refPtr(0, 0, 0),
		},
		{
			// free = [2 4 0 0]: only the {0,1} ring window fits 5, and the
			// fuller board 0 contributes first.
			name: "ring window fullest board first",
			setup: func(t *testing.T, db *ResourceDB) {
				carveBoard(t, db, "fill0", 0, blockRef(0, 2, 3), blockRef(0, 2, 4))
				carveBoard(t, db, "fill1", 1, blockRef(1, 1, 1), blockRef(1, 1, 2), blockRef(1, 1, 3), blockRef(1, 1, 4))
				carveBoard(t, db, "fill2", 2)
				carveBoard(t, db, "fill3", 3)
			},
			n:          5,
			wantBoards: []int{0, 1},
			wantFirst:  refPtr(0, 2, 3),
		},
		{
			name: "exhausted healthy cluster",
			setup: func(t *testing.T, db *ResourceDB) {
				for b := 0; b < 4; b++ {
					carveBoard(t, db, fmt.Sprintf("fill%d", b), b)
				}
			},
			n:         1,
			wantErrIs: []error{ErrNoCapacity},
			notErrIs:  []error{ErrBoardUnhealthy},
		},
		{
			// Board 3 is empty but degraded: the failure must name both the
			// capacity shortfall and the stranded blocks.
			name: "capacity stranded on unhealthy board",
			setup: func(t *testing.T, db *ResourceDB) {
				for b := 0; b < 3; b++ {
					carveBoard(t, db, fmt.Sprintf("fill%d", b), b)
				}
				if err := db.SetHealth(3, Degraded); err != nil {
					t.Fatal(err)
				}
			},
			n:         1,
			wantErrIs: []error{ErrNoCapacity, ErrBoardUnhealthy},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := NewResourceDB(testCluster())
			tc.setup(t, db)
			refs, err := Allocate(db, tc.n)
			for _, want := range tc.wantErrIs {
				if !errors.Is(err, want) {
					t.Fatalf("Allocate(%d) error = %v, want %v in chain", tc.n, err, want)
				}
			}
			for _, not := range tc.notErrIs {
				if errors.Is(err, not) {
					t.Fatalf("Allocate(%d) error = %v unexpectedly wraps %v", tc.n, err, not)
				}
			}
			if len(tc.wantErrIs) > 0 {
				return
			}
			if err != nil {
				t.Fatalf("Allocate(%d): %v", tc.n, err)
			}
			if len(refs) != tc.n {
				t.Fatalf("Allocate(%d) returned %d refs: %v", tc.n, len(refs), refs)
			}
			if got := BoardsOf(refs); fmt.Sprint(got) != fmt.Sprint(tc.wantBoards) {
				t.Fatalf("boards = %v, want %v", got, tc.wantBoards)
			}
			if tc.wantContig && !isContig(refs) {
				t.Fatalf("allocation not contiguous: %v", refs)
			}
			if tc.wantFirst != nil && refs[0] != *tc.wantFirst {
				t.Fatalf("first block = %v, want %v", refs[0], *tc.wantFirst)
			}
		})
	}
}

// refPtr is blockRef returning a pointer, for table literals.
func refPtr(board, die, index int) *cluster.GlobalBlockRef {
	r := blockRef(board, die, index)
	return &r
}

// TestAllocateContiguityRegression churns allocations and releases and pins
// the policy's core promise: whenever some healthy board has a free run
// long enough for the request, the placement is contiguous. The pre-index
// allocator violated this as soon as free lists fragmented.
func TestAllocateContiguityRegression(t *testing.T) {
	db := NewResourceDB(testCluster())
	var live []string
	for i := 0; i < 400; i++ {
		n := 1 + (i*7)%5
		couldContig := false
		for _, st := range db.BoardStats() {
			if st.LongestRun >= n {
				couldContig = true
				break
			}
		}
		refs, err := Allocate(db, n)
		if err != nil {
			if len(live) == 0 {
				t.Fatalf("churn step %d: no capacity with nothing deployed: %v", i, err)
			}
			db.ReleaseApp(live[0])
			live = live[1:]
			continue
		}
		if couldContig && !isContig(refs) {
			t.Fatalf("churn step %d: a run of %d existed but placement fragmented: %v", i, n, refs)
		}
		name := fmt.Sprintf("frag-%d", i)
		if err := db.Claim(name, refs); err != nil {
			t.Fatalf("churn step %d: %v", i, err)
		}
		live = append(live, name)
		// Release from the middle to manufacture holes.
		if i%3 == 0 && len(live) > 4 {
			victim := live[len(live)/2]
			db.ReleaseApp(victim)
			live = append(live[:len(live)/2], live[len(live)/2+1:]...)
		}
	}
	if problems := db.VerifyIndex(); len(problems) != 0 {
		t.Fatalf("index drifted during churn: %v", problems)
	}
}
