package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vital/internal/cluster"
	"vital/internal/interconnect"
	"vital/internal/sched"
	"vital/internal/workload"
)

// referenceExecute is the build-per-call Execute: it builds the whole
// system — actors, channels, ring, back-edge map — for this one call. Its
// DMA accounting runs on dep.Primary, as Execute's does. It is the
// reference model the plan's reused systems must match field for field.
func referenceExecute(s *Stack, app *CompiledApp, dep *sched.Deployment, tokens uint64) (*ExecutionStats, error) {
	nb := app.Blocks()
	if len(dep.Blocks) != nb {
		return nil, fmt.Errorf("core: deployment has %d blocks, app has %d", len(dep.Blocks), nb)
	}
	stats := &ExecutionStats{NumActors: nb}
	actors := make([]*interconnect.Actor, nb)
	for b := 0; b < nb; b++ {
		actors[b] = &interconnect.Actor{Name: fmt.Sprintf("vb%d", b), Work: tokens}
	}
	back := findBackEdges(nb, app.Channels)
	numBoards := len(s.Cluster.Boards)
	ring, err := interconnect.NewSegmentedRing(interconnect.RingBitsPerCycle, max(numBoards, 1))
	if err != nil {
		return nil, err
	}
	var channels []*interconnect.Channel
	for _, spec := range app.Channels {
		srcLoc := dep.Blocks[spec.SrcBlock]
		for _, dst := range spec.DstBlocks {
			dstLoc := dep.Blocks[dst]
			class := interconnect.IntraDie
			switch {
			case srcLoc.Board != dstLoc.Board:
				class = interconnect.InterFPGA
				stats.InterFPGA++
			case srcLoc.Die != dstLoc.Die:
				class = interconnect.InterDie
				stats.InterDie++
			default:
				stats.IntraDie++
			}
			params := interconnect.DefaultParams(class)
			if spec.WidthBits > 0 && spec.WidthBits < params.WidthBits {
				params.WidthBits = spec.WidthBits
			}
			isBack := back[edge{spec.SrcBlock, dst}]
			if isBack {
				depth := params.LatencyCycles + 8
				if params.FIFODepth < depth {
					params.FIFODepth = depth
				}
			}
			ch, err := interconnect.New(params)
			if err != nil {
				return nil, err
			}
			if isBack {
				if err := ch.Prime(params.LatencyCycles + 4); err != nil {
					return nil, err
				}
			}
			if class == interconnect.InterFPGA {
				segments, cw := interconnect.PathSegments(numBoards, srcLoc.Board, dstLoc.Board)
				if err := ring.AttachPath(ch, segments, cw); err != nil {
					return nil, err
				}
			}
			channels = append(channels, ch)
			actors[spec.SrcBlock].Outs = append(actors[spec.SrcBlock].Outs, ch)
			actors[dst].Ins = append(actors[dst].Ins, ch)
		}
	}
	sys := &interconnect.System{Actors: actors, Channels: channels, Rings: []*interconnect.Ring{ring}}
	cycles, err := sys.Run(cycleBudget(tokens))
	if err != nil {
		return nil, fmt.Errorf("core: executing %s: %w", app.Name, err)
	}
	if !sys.AllDone() {
		return nil, fmt.Errorf("core: executing %s: cycle budget exhausted", app.Name)
	}
	stats.Cycles = cycles
	stats.Tokens = tokens
	for _, a := range actors {
		if a.Fired() < stats.Tokens {
			stats.Tokens = a.Fired()
		}
		stats.GatedCycles += a.Gated
	}
	stats.Traffic = sys.Traffic()
	if err := s.dmaTraffic(app, dep.Primary, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// tokenSequence is a seeded run of token counts: 1, 2, 3 and 10000 (the
// control-path and data-plane calls), odd sizes between them, and repeats,
// shuffled so each size follows runs of other lengths.
func tokenSequence(seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 48))
	seq := []uint64{1, 2, 3, 10000, 1, 10000}
	for i := 0; i < 8; i++ {
		seq = append(seq, 2*rng.Uint64N(6000)+1)
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// sameStats fails t unless got equals want in every field, Traffic
// included.
func sameStats(t *testing.T, what string, got, want *ExecutionStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("%s: reused plan differs from a fresh build:\n got %s\nwant %s", what, g, w)
	}
}

// checkAgainstReference executes app on its current placement over a
// seeded token sequence, through run, and compares every result with the
// reference model on the same placement.
func checkAgainstReference(t *testing.T, s *Stack, app *CompiledApp, seed uint64, run func(tokens uint64) (*ExecutionStats, error)) {
	t.Helper()
	dep, ok := s.Controller.Deployment(app.Name)
	if !ok {
		t.Fatalf("%s not deployed", app.Name)
	}
	for i, tokens := range tokenSequence(seed) {
		got, err := run(tokens)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceExecute(s, app, dep, tokens)
		if err != nil {
			t.Fatal(err)
		}
		sameStats(t, fmt.Sprintf("%s call %d (tokens=%d)", app.Name, i, tokens), got, want)
	}
}

// spanFourBoards deploys lenet-M across FPGAs as TestExecuteGolden does.
func spanFourBoards(t *testing.T) (*Stack, *CompiledApp, *sched.Deployment) {
	t.Helper()
	s := NewStack(nil)
	t.Cleanup(s.Controller.Close)
	app, _ := compileSpec(t, s, "lenet", workload.Medium)
	for b := 0; b < 4; b++ {
		free := s.Controller.DB.FreeOnBoard(b)
		if err := s.Controller.DB.Claim("filler", free[:13]); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := s.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.MultiFPGA {
		t.Fatal("expected a multi-FPGA deployment")
	}
	return s, app, dep
}

// relocateToBoard moves virtual block vb of app to the first free block of
// board b.
func relocateToBoard(t *testing.T, s *Stack, app string, vb, b int) cluster.GlobalBlockRef {
	t.Helper()
	target := s.Controller.DB.FreeOnBoard(b)[0]
	if err := s.Controller.Relocate(app, vb, target); err != nil {
		t.Fatal(err)
	}
	return target
}

// TestExecuteReuseMatchesFresh: over seeded token sequences, executes that
// reuse a bound plan's systems report exactly what a system built fresh
// for the call does, on the execute_stream placements, across FPGAs, after
// a relocation and after a run that ran out of cycle budget.
func TestExecuteReuseMatchesFresh(t *testing.T) {
	t.Run("execute_stream", func(t *testing.T) {
		s, apps := deployStream(t)
		for i, app := range apps {
			reg, _ := s.App(app.Name)
			checkAgainstReference(t, s, reg, uint64(i), func(tokens uint64) (*ExecutionStats, error) {
				return s.ExecuteByName(app.Name, tokens)
			})
		}
	})
	t.Run("across-fpgas", func(t *testing.T) {
		s, app, dep := spanFourBoards(t)
		checkAgainstReference(t, s, app, 7, func(tokens uint64) (*ExecutionStats, error) {
			return s.Execute(app, dep, tokens)
		})
	})
	t.Run("relocated", func(t *testing.T) {
		s, app, dep := spanFourBoards(t)
		if _, err := s.Execute(app, dep, 100); err != nil {
			t.Fatal(err)
		}
		s.Controller.DB.ReleaseApp("filler")
		relocateToBoard(t, s, app.Name, 0, (dep.Blocks[0].Board+1)%len(s.Cluster.Boards))
		moved, _ := s.Controller.Deployment(app.Name)
		checkAgainstReference(t, s, app, 11, func(tokens uint64) (*ExecutionStats, error) {
			return s.Execute(app, moved, tokens)
		})
		// The deployment copy taken before the move still executes on the
		// placement it describes.
		got, err := s.Execute(app, dep, 500)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceExecute(s, app, dep, 500)
		if err != nil {
			t.Fatal(err)
		}
		sameStats(t, "stale deployment copy", got, want)
	})
	t.Run("cycle-budget", func(t *testing.T) {
		s, apps := deployStream(t)
		for i, app := range apps {
			p, ok, err := s.boundPlan(app)
			if !ok || err != nil {
				t.Fatalf("%s: bound plan: %v, %v", app.Name, ok, err)
			}
			for range 2 {
				if _, err := s.execute(p, 10000, 5); err == nil || !strings.Contains(err.Error(), "cycle budget exhausted") {
					t.Fatalf("%s: 5-cycle budget: err = %v", app.Name, err)
				}
			}
			checkAgainstReference(t, s, app, uint64(20+i), func(tokens uint64) (*ExecutionStats, error) {
				return s.Execute(app, mustDeployment(t, s, app.Name), tokens)
			})
		}
	})
}

// mustDeployment returns a copy of app's current deployment record.
func mustDeployment(t *testing.T, s *Stack, app string) *sched.Deployment {
	t.Helper()
	dep, ok := s.Controller.Deployment(app)
	if !ok {
		t.Fatalf("%s not deployed", app)
	}
	return dep
}

// Two goroutines executing the same app at once each get a system of
// their own and the result a lone call gets (run under -race to check the
// free list).
func TestExecuteConcurrentReuse(t *testing.T) {
	s, apps := deployStream(t)
	app := apps[len(apps)-1]
	dep := mustDeployment(t, s, app.Name)
	want := map[uint64]*ExecutionStats{}
	for _, tokens := range []uint64{3, 10000} {
		w, err := referenceExecute(s, app, dep, tokens)
		if err != nil {
			t.Fatal(err)
		}
		want[tokens] = w
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tokens := []uint64{3, 10000}[(i+g)%2]
				got, err := s.ExecuteByName(app.Name, tokens)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[tokens]) {
					errs <- fmt.Errorf("goroutine %d call %d (tokens=%d): %+v, want %+v", g, i, tokens, got, want[tokens])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A plan lives as long as its placement: an undeploy leaves none behind,
// a relocation or an evacuation binds a new one, and an execute after a
// relocation matches a fresh stack that made the same move.
func TestExecutePlanLifetime(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	app, _ := compileSpec(t, s, "lenet", workload.Medium)
	if _, err := s.Deploy(app, 1<<30); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(app, mustDeployment(t, s, app.Name), 1000); err != nil {
		t.Fatal(err)
	}
	first, _, _ := s.boundPlan(app)
	target := relocateToBoard(t, s, app.Name, 1, 2)
	afterMove, err := s.Execute(app, mustDeployment(t, s, app.Name), 1000)
	if err != nil {
		t.Fatal(err)
	}
	second, _, _ := s.boundPlan(app)
	if second == first || !second.binds(mustDeployment(t, s, app.Name)) {
		t.Fatal("relocation kept the plan of the old placement")
	}

	fresh := NewStack(nil)
	defer fresh.Controller.Close()
	freshApp, _ := compileSpec(t, fresh, "lenet", workload.Medium)
	if _, err := fresh.Deploy(freshApp, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Controller.Relocate(freshApp.Name, 1, target); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Execute(freshApp, mustDeployment(t, fresh, freshApp.Name), 1000)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "execute after relocation", afterMove, want)

	// A board failure evacuates the app and moves its memory domain: the
	// plan is rebound to the new primary board.
	dep := mustDeployment(t, s, app.Name)
	if _, err := s.Controller.InjectFault(dep.Primary, sched.FaultFail); err != nil {
		t.Fatal(err)
	}
	evacuated := mustDeployment(t, s, app.Name)
	if evacuated.Primary == dep.Primary {
		t.Fatal("evacuation kept the failed primary board")
	}
	stats, err := s.Execute(app, evacuated, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if third, _, _ := s.boundPlan(app); third == second || third.primary != evacuated.Primary {
		t.Fatal("evacuation kept the plan of the old placement")
	}
	if stats.DRAMReadBytes != 1000*tokenBytes {
		t.Fatalf("DRAM read %d bytes after evacuation, want %d", stats.DRAMReadBytes, 1000*tokenBytes)
	}

	last, _, _ := s.boundPlan(app)
	collected := make(chan struct{})
	runtime.SetFinalizer(last, func(*execPlan) { close(collected) })
	first, second, last = nil, nil, nil
	if err := s.Undeploy(app); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.boundPlan(app); ok {
		t.Fatal("undeployed app still has a bound plan")
	}
	for tries := 1; ; tries++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
			if tries == 40 {
				t.Fatal("the plan of an undeployed app is still reachable")
			}
		}
	}
}

// The memory traffic of a run goes through the app's memory domain on its
// primary board, also once relocation has moved every block off it.
func TestExecuteDMAOnPrimaryAfterRelocate(t *testing.T) {
	s := NewStack(nil)
	defer s.Controller.Close()
	app, _ := compileSpec(t, s, "lenet", workload.Small)
	dep, err := s.Deploy(app, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Execute(app, dep, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for vb := range dep.Blocks {
		relocateToBoard(t, s, app.Name, vb, (dep.Primary+1)%len(s.Cluster.Boards))
	}
	moved := mustDeployment(t, s, app.Name)
	for _, blk := range moved.Blocks {
		if blk.Board == moved.Primary {
			t.Fatalf("block %v still on the primary board %d", blk, moved.Primary)
		}
	}
	after, err := s.Execute(app, moved, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if after.DRAMReadBytes != 1000*tokenBytes || after.DRAMWriteBytes != 1000*tokenBytes || after.DMASeconds != before.DMASeconds {
		t.Fatalf("after relocation: DRAM %d/%d bytes in %v s, want %d/%d in %v s",
			after.DRAMReadBytes, after.DRAMWriteBytes, after.DMASeconds, before.DRAMReadBytes, before.DRAMWriteBytes, before.DMASeconds)
	}
	d, ok := s.Cluster.Boards[moved.Primary].Mem.Domain(app.Name)
	if !ok {
		t.Fatal("primary board lost the app's domain")
	}
	if d.BytesRead != 2*1000*tokenBytes || d.BytesWrit != 2*1000*tokenBytes {
		t.Fatalf("primary domain counted %d/%d bytes over both runs, want %d each", d.BytesRead, d.BytesWrit, 2*1000*tokenBytes)
	}
}

// A warm execute allocates its stats, its traffic report's segment rows
// and little else: the channel graph is bound once per placement.
func TestExecuteAllocs(t *testing.T) {
	s, apps := deployStream(t)
	for _, app := range apps {
		if _, err := s.ExecuteByName(app.Name, 10000); err != nil {
			t.Fatal(err)
		}
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			_, err = s.ExecuteByName(app.Name, 10000)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 12 {
			t.Errorf("%s: warm execute allocates %.0f times, want at most 12", app.Name, allocs)
		}
	}
}

// POST /execute answers with a typed body; its bytes are those of the map
// it replaced.
func TestExecuteResponseMatchesMapEncoding(t *testing.T) {
	s, apps := deployStream(t)
	for _, app := range apps {
		stats, err := s.ExecuteByName(app.Name, 10000)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := json.NewEncoder(&got).Encode(&executeResponse{App: app.Name, Stats: stats}); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(map[string]interface{}{"app": app.Name, "stats": stats}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: typed response %s, map encoding %s", app.Name, got.Bytes(), want.Bytes())
		}
	}
}
