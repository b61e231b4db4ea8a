// Package sched is ViTAL's system layer (Section 3.4, Fig. 6): the system
// controller with its resource database and bitstream database, the
// communication-aware runtime allocation policy, deployment via partial
// reconfiguration, isolation enforcement, and an HTTP API for integration
// with a higher-level system (hypervisor).
package sched

import (
	"fmt"
	"sort"
	"sync"

	"vital/internal/cluster"
)

// ResourceDB tracks the status of every physical block in the cluster: the
// resource database of Fig. 6. Alongside the owner table it maintains the
// free-run index (freerun.go): per-die runs of consecutive free blocks and
// a cluster-wide best-fit board index, updated incrementally on
// Claim/Release/SetHealth, so capacity and contiguity queries never rescan
// the owner map.
type ResourceDB struct {
	// cluster is set once at construction and never mutated, so it lives
	// above mu (fields below mu are guarded by it — see lockcheck).
	cluster *cluster.Cluster

	mu sync.Mutex
	// owner maps a block to the application holding it ("" = free).
	owner map[cluster.GlobalBlockRef]string
	// byApp indexes the blocks held by each application.
	byApp map[string][]cluster.GlobalBlockRef
	// health tracks per-board hardware state; non-healthy boards offer no
	// free blocks, which makes every placement path health-aware.
	health []BoardHealth
	// runs is the per-board free-run state (maintained regardless of
	// health); idx lists only healthy boards. used counts claimed blocks.
	runs []boardRuns
	idx  *clusterIndex
	used int
}

// NewResourceDB builds the database with every block free.
func NewResourceDB(c *cluster.Cluster) *ResourceDB {
	runCap, freeCap := 0, 0
	for _, b := range c.Boards {
		if b.Device.BlocksPerDie > runCap {
			runCap = b.Device.BlocksPerDie
		}
		if b.Device.NumBlocks() > freeCap {
			freeCap = b.Device.NumBlocks()
		}
	}
	db := &ResourceDB{
		cluster: c,
		owner:   make(map[cluster.GlobalBlockRef]string, c.TotalBlocks()),
		byApp:   map[string][]cluster.GlobalBlockRef{},
		health:  make([]BoardHealth, len(c.Boards)),
		runs:    make([]boardRuns, len(c.Boards)),
		idx:     newClusterIndex(len(c.Boards), runCap, freeCap),
	}
	for b := range db.health {
		db.health[b] = Healthy
		db.runs[b] = newBoardRuns(len(c.Boards[b].Device.Dies), c.Boards[b].Device.BlocksPerDie)
		db.idx.insert(b, db.runs[b].maxRun, db.runs[b].free)
	}
	for _, ref := range c.AllBlocks() {
		db.owner[ref] = ""
	}
	return db
}

// Cluster returns the cluster this database manages.
func (db *ResourceDB) Cluster() *cluster.Cluster { return db.cluster }

// applyLocked routes one block claim (or release) through the free-run
// index: the board leaves its index cell, its runs split or merge, and it
// re-enters under the new (maxRun, free) key. The owner table must already
// have been validated, so an index error means the index drifted from the
// owner table — a bug, not an operational condition.
func (db *ResourceDB) applyLocked(ref cluster.GlobalBlockRef, claim bool) {
	b := ref.Board
	br := &db.runs[b]
	if db.health[b] == Healthy {
		db.idx.remove(b, br.maxRun, br.free)
	}
	var err error
	if claim {
		err = br.claim(ref.Die, ref.Index)
		db.used++
	} else {
		err = br.release(ref.Die, ref.Index)
		db.used--
	}
	if db.health[b] == Healthy {
		db.idx.insert(b, br.maxRun, br.free)
	}
	if err != nil {
		panic(fmt.Sprintf("sched: free-run index out of sync with owner table: %v", err))
	}
}

// FreeOnBoard returns the free blocks of one board, in (die, index) order.
func (db *ResourceDB) FreeOnBoard(board int) []cluster.GlobalBlockRef {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.freeOnBoardLocked(board)
}

func (db *ResourceDB) freeOnBoardLocked(board int) []cluster.GlobalBlockRef {
	// Non-healthy boards offer nothing: with free lists empty there, the
	// allocator, the defragmenter and the evacuator all skip them without
	// any of those policies knowing about health states.
	if db.health[board] != Healthy {
		return nil
	}
	br := &db.runs[board]
	free := make([]cluster.GlobalBlockRef, 0, br.free)
	for d, runs := range br.dies {
		for _, r := range runs {
			for i := 0; i < r.length; i++ {
				free = append(free, blockRef(board, d, r.start+i))
			}
		}
	}
	return free
}

func blockRef(board, die, index int) cluster.GlobalBlockRef {
	g := cluster.GlobalBlockRef{Board: board}
	g.Die, g.Index = die, index
	return g
}

// FreeCount returns the number of free blocks per board (zero on
// non-healthy boards).
func (db *ResourceDB) FreeCount() []int {
	db.mu.Lock()
	defer db.mu.Unlock()
	counts := make([]int, len(db.cluster.Boards))
	for b := range counts {
		if db.health[b] == Healthy {
			counts[b] = db.runs[b].free
		}
	}
	return counts
}

// BoardStat is one board's occupancy and free-capacity shape. Free,
// LongestRun (the longest run of consecutive free blocks within a die) and
// FreeRuns (the number of such runs) describe allocatable capacity, so
// they read zero on a board that is not healthy.
type BoardStat struct {
	Health                           BoardHealth
	Used, Free, LongestRun, FreeRuns int
}

// BoardStats reads every board off the free-run index under one lock hold,
// O(dies) per board: a metrics scrape or a placement report costs one
// acquisition instead of several per board.
func (db *ResourceDB) BoardStats() []BoardStat {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]BoardStat, len(db.runs))
	for b := range db.runs {
		br := &db.runs[b]
		st := BoardStat{Health: db.health[b], Used: db.cluster.Boards[b].Device.NumBlocks() - br.free}
		if st.Health == Healthy {
			st.Free, st.LongestRun = br.free, br.maxRun
			for _, die := range br.dies {
				st.FreeRuns += len(die)
			}
		}
		out[b] = st
	}
	return out
}

// Runs returns one board's free runs in (die, start) order, nil when the
// board is not healthy. The defragmenter plans moves from this view.
func (db *ResourceDB) Runs(board int) []Run {
	db.mu.Lock()
	defer db.mu.Unlock()
	if board < 0 || board >= len(db.runs) || db.health[board] != Healthy {
		return nil
	}
	var out []Run
	for d, runs := range db.runs[board].dies {
		for _, r := range runs {
			out = append(out, Run{Die: d, Start: r.start, Length: r.length})
		}
	}
	return out
}

// UsedBlocks returns the total number of occupied blocks.
func (db *ResourceDB) UsedBlocks() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.used
}

// contiguousAlloc finds the best-fit contiguous placement: the healthy
// board whose longest free run is closest to n (fullest such board on
// ties), then the shortest run ≥ n on that board. Returns nil when no
// single run fits anywhere.
func (db *ResourceDB) contiguousAlloc(n int) []cluster.GlobalBlockRef {
	db.mu.Lock()
	defer db.mu.Unlock()
	board, ok := db.idx.bestFitBoard(n)
	if !ok {
		return nil
	}
	bestDie, bestStart, bestLen := -1, 0, 0
	for d, runs := range db.runs[board].dies {
		for _, r := range runs {
			if r.length >= n && (bestDie == -1 || r.length < bestLen) {
				bestDie, bestStart, bestLen = d, r.start, r.length
			}
		}
	}
	if bestDie == -1 {
		panic(fmt.Sprintf("sched: index offered board %d for run %d but no run fits", board, n))
	}
	refs := make([]cluster.GlobalBlockRef, n)
	for i := range refs {
		refs[i] = blockRef(board, bestDie, bestStart+i)
	}
	return refs
}

// packedAlloc finds the single healthy board with the fewest free blocks
// that still holds n, and takes its runs largest-first — the non-contiguous
// single-FPGA fallback when no run is long enough. Returns nil when no
// board fits.
func (db *ResourceDB) packedAlloc(n int) []cluster.GlobalBlockRef {
	db.mu.Lock()
	defer db.mu.Unlock()
	board, ok := db.idx.bestFreeBoard(n)
	if !ok {
		return nil
	}
	return db.takeRunsLocked(board, n)
}

// windowTake takes n blocks from one board, consuming free runs
// largest-first so the remaining free space stays as contiguous as
// possible. Returns fewer than n refs if the board lacks capacity.
func (db *ResourceDB) windowTake(board, n int) []cluster.GlobalBlockRef {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.health[board] != Healthy {
		return nil
	}
	return db.takeRunsLocked(board, n)
}

// takeRunsLocked materializes n block refs from a board's free runs,
// largest run first ((die, start) order on ties), each run consumed from
// its start.
func (db *ResourceDB) takeRunsLocked(board, n int) []cluster.GlobalBlockRef {
	type dieRun struct{ die, start, length int }
	var runs []dieRun
	for d, rs := range db.runs[board].dies {
		for _, r := range rs {
			runs = append(runs, dieRun{die: d, start: r.start, length: r.length})
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].length > runs[j].length })
	refs := make([]cluster.GlobalBlockRef, 0, n)
	for _, r := range runs {
		for i := 0; i < r.length && len(refs) < n; i++ {
			refs = append(refs, blockRef(board, r.die, r.start+i))
		}
		if len(refs) == n {
			break
		}
	}
	return refs
}

// SingleBoardFit returns a healthy board with at least n free blocks (the
// one with the fewest, read from the index), or -1 when none fits.
func (db *ResourceDB) SingleBoardFit(n int) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if b, ok := db.idx.bestFreeBoard(n); ok {
		return b
	}
	return -1
}

// smallestRunTarget returns the start block of the shortest free run on
// any healthy board, excluding the given (board, die). Consuming the
// smallest run elsewhere never splits a run, so the defragmenter's
// evictions cannot create the fragmentation they are removing.
func (db *ResourceDB) smallestRunTarget(exBoard, exDie int) (cluster.GlobalBlockRef, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var best cluster.GlobalBlockRef
	bestLen, found := 0, false
	for b := range db.runs {
		if db.health[b] != Healthy {
			continue
		}
		for d, runs := range db.runs[b].dies {
			if b == exBoard && d == exDie {
				continue
			}
			for _, r := range runs {
				if !found || r.length < bestLen {
					best, bestLen, found = blockRef(b, d, r.start), r.length, true
				}
			}
		}
	}
	return best, found
}

// Claim atomically assigns the blocks to the application. If any block is
// already owned, nothing changes and an error is returned — the isolation
// guarantee that no physical block is ever shared (Section 3.4).
func (db *ResourceDB) Claim(app string, refs []cluster.GlobalBlockRef) error {
	if app == "" {
		return fmt.Errorf("sched: empty application name")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, ref := range refs {
		owner, known := db.owner[ref]
		if !known {
			return fmt.Errorf("sched: unknown block %v", ref)
		}
		if owner != "" {
			return fmt.Errorf("sched: block %v already owned by %q", ref, owner)
		}
	}
	seen := map[cluster.GlobalBlockRef]bool{}
	for _, ref := range refs {
		if seen[ref] {
			return fmt.Errorf("sched: duplicate block %v in claim", ref)
		}
		seen[ref] = true
	}
	for _, ref := range refs {
		db.owner[ref] = app
		db.applyLocked(ref, true)
	}
	db.byApp[app] = append(db.byApp[app], refs...)
	return nil
}

// ReleaseApp frees all blocks of an application and returns them.
func (db *ResourceDB) ReleaseApp(app string) []cluster.GlobalBlockRef {
	db.mu.Lock()
	defer db.mu.Unlock()
	refs := db.byApp[app]
	for _, ref := range refs {
		db.owner[ref] = ""
		db.applyLocked(ref, false)
	}
	delete(db.byApp, app)
	return refs
}

// SetHealth sets a board's health state. Prefer Controller.InjectFault,
// which additionally evacuates failed boards; SetHealth alone can leave
// live deployments referencing a failed board (Controller.Verify flags
// that as a board-availability violation).
func (db *ResourceDB) SetHealth(board int, h BoardHealth) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if board < 0 || board >= len(db.health) {
		return fmt.Errorf("sched: no board %d (cluster has %d)", board, len(db.health))
	}
	switch h {
	case Healthy, Degraded, Failed:
	default:
		return fmt.Errorf("sched: unknown health state %q", h)
	}
	// The index lists healthy boards only; crossing the healthy boundary
	// links or unlinks the board (its runs are maintained either way, so
	// recovery is O(1)).
	was, is := db.health[board] == Healthy, h == Healthy
	if was && !is {
		db.idx.remove(board, db.runs[board].maxRun, db.runs[board].free)
	} else if !was && is {
		db.idx.insert(board, db.runs[board].maxRun, db.runs[board].free)
	}
	db.health[board] = h
	return nil
}

// Health returns a board's health state. Out-of-range boards report
// Failed, so callers can never place onto a board that does not exist.
func (db *ResourceDB) Health(board int) BoardHealth {
	db.mu.Lock()
	defer db.mu.Unlock()
	if board < 0 || board >= len(db.health) {
		return Failed
	}
	return db.health[board]
}

// HealthSnapshot copies the per-board health states.
func (db *ResourceDB) HealthSnapshot() []BoardHealth {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]BoardHealth(nil), db.health...)
}

// UsedOnBoard returns the number of occupied blocks on one board,
// regardless of the board's health.
func (db *ResourceDB) UsedOnBoard(board int) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if board < 0 || board >= len(db.runs) {
		return 0
	}
	return db.cluster.Boards[board].Device.NumBlocks() - db.runs[board].free
}

// UnhealthyFree counts free blocks stranded on non-healthy boards —
// capacity that physically exists but is not allocatable. Allocation
// failures report it so operators can tell "cluster full" from "cluster
// sick".
func (db *ResourceDB) UnhealthyFree() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	stranded := 0
	for b := range db.runs {
		if db.health[b] != Healthy {
			stranded += db.runs[b].free
		}
	}
	return stranded
}

// Owner returns the application holding a block ("" when free).
func (db *ResourceDB) Owner(ref cluster.GlobalBlockRef) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.owner[ref]
}

// Snapshot copies the owner table and per-application claims, for
// verification against the isolation invariant without holding the lock
// while the (potentially slow) checks run.
func (db *ResourceDB) Snapshot() (owners map[cluster.GlobalBlockRef]string, claims map[string][]cluster.GlobalBlockRef) {
	db.mu.Lock()
	defer db.mu.Unlock()
	owners = make(map[cluster.GlobalBlockRef]string)
	for ref, app := range db.owner {
		if app != "" {
			owners[ref] = app
		}
	}
	claims = make(map[string][]cluster.GlobalBlockRef, len(db.byApp))
	for app, refs := range db.byApp {
		claims[app] = append([]cluster.GlobalBlockRef(nil), refs...)
	}
	return owners, claims
}

// Apps lists applications currently holding blocks.
func (db *ResourceDB) Apps() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	apps := make([]string, 0, len(db.byApp))
	for a := range db.byApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	return apps
}

// VerifyIndex rebuilds the free-run state every board should have from the
// owner table and diffs it against the live index: run sets, free counts,
// longest runs, the used counter, and cluster-index membership. It returns
// one message per discrepancy — empty means the incremental maintenance
// has not drifted. Controller.Verify folds these into its report as
// free-run-index violations.
func (db *ResourceDB) VerifyIndex() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var problems []string
	totalUsed := 0
	for b := range db.cluster.Boards {
		dev := db.cluster.Boards[b].Device
		want := newBoardRuns(len(dev.Dies), dev.BlocksPerDie)
		for _, ref := range dev.Blocks() {
			g := cluster.GlobalBlockRef{Board: b, BlockRef: ref}
			if db.owner[g] != "" {
				totalUsed++
				if err := want.claim(ref.Die, ref.Index); err != nil {
					problems = append(problems, fmt.Sprintf("board %d: rebuilding reference runs: %v", b, err))
				}
			}
		}
		got := &db.runs[b]
		if got.free != want.free {
			problems = append(problems, fmt.Sprintf("board %d: index free=%d, owner table says %d", b, got.free, want.free))
		}
		if got.maxRun != want.maxRun {
			problems = append(problems, fmt.Sprintf("board %d: index maxRun=%d, owner table says %d", b, got.maxRun, want.maxRun))
		}
		for d := range want.dies {
			if fmt.Sprint(got.dies[d]) != fmt.Sprint(want.dies[d]) {
				problems = append(problems, fmt.Sprintf("board %d die %d: index runs %v, owner table says %v", b, d, got.dies[d], want.dies[d]))
			}
		}
		if member := db.idx.member[b]; member != (db.health[b] == Healthy) {
			problems = append(problems, fmt.Sprintf("board %d: index membership %v but health %v", b, member, db.health[b]))
		}
	}
	if db.used != totalUsed {
		problems = append(problems, fmt.Sprintf("used counter %d, owner table says %d", db.used, totalUsed))
	}
	return problems
}
