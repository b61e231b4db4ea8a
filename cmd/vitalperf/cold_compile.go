package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// coldClients is the number of tenants that submit each never-seen design
// at the same moment: one leads the compile, the other must coalesce onto
// it (or hit the content-addressed cache) and never compile a second time.
const coldClients = 2

// coldWarmDesign is compiled once on a throwaway stack before the first
// repetition, so the Go heap has grown to compile size and the compile
// and HTTP code paths have been faulted in before anything is timed. It is
// not in the measured list.
const coldWarmDesign = "nin-S"

// coldRep is what one repetition on a fresh stack measured.
type coldRep struct {
	wall      time.Duration // sum over the designs of first submit → both deployed
	perDesign []float64     // the same per design, microseconds
	outcome   outcome
}

// runColdCompile brings a fixed list of never-seen designs up on fresh
// stacks: the compile pipeline does nearly all the work and the control
// path next to none, so this is the one workload a compile change moves
// and the one where a control-path change is predicted to move nothing.
func runColdCompile(e *env, r *result) error {
	sz := e.sz
	tenants := tenantNames("c", coldClients)
	// One seeded order shared by both tenants: the seed decides in which
	// order the designs meet the empty caches, not which designs.
	sch := orderSchedule("cold_compile", e.seed, 1, len(sz.coldDesigns), 1)
	r.ScheduleHash = sch.hash
	r.Params["clients"] = coldClients
	r.Params["designs"] = sz.coldDesigns
	r.Params["warm_design"] = coldWarmDesign
	r.Params["tokens"] = sz.churnTokens

	// Set-up: boot, one warm-up compile, close — repeated like every
	// workload's set-up so setup_s is a median.
	reps := sz.setupReps
	if e.traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		t, err := boot(0, tenants)
		if err != nil {
			return err
		}
		t.startLoops()
		_, err = t.newClient().cycle(0, tenants[0], coldWarmDesign, false, sz.churnTokens)
		t.close()
		if err != nil {
			return fmt.Errorf("warm-up compile: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.e2e.put("setup_s", "s", median(setups), len(setups))

	// rep runs one repetition on a fresh stack and leaves the stack open
	// for the caller to measure on and close.
	rep := func(traced bool) (coldRep, error) {
		cr := coldRep{outcome: outcome{designs: sz.coldDesigns}}
		t, err := boot(0, tenants)
		if err != nil {
			return cr, err
		}
		// Each deploy creates its app's metric series beside the scrape
		// loops here, as in a daemon; there are sixteen, seconds apart.
		t.startLoops()
		clients := make([]*client, coldClients)
		for c := range clients {
			clients[c] = t.newClient()
			clients[c].rec = e.rec(c, traced)
		}
		ups := make([][]cycleTimes, coldClients)
		for n, o := range sch.perClient[0] {
			design := sz.coldDesigns[o.Design]
			start := time.Now()
			errs := make([]error, coldClients)
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl, req := clients[c], uint64(c)<<40|uint64(n+1)
					root := cl.rec.open("cycle", 0, req, start)
					up, err := cl.bringUp(root, req, start, tenants[c], design, false)
					cl.rec.close(root, time.Now())
					ups[c], errs[c] = append(ups[c], up), err
				}(c)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.close()
					return cr, fmt.Errorf("bringing up %s: %w", design, err)
				}
			}
			lat := time.Since(start)
			cr.wall += lat
			cr.perDesign = append(cr.perDesign, micros(lat))
			for c := range clients {
				up := ups[c][n]
				r.checkBlocks(design, up.ticket)
				if wait, run, ok := ticketTimes(up.ticket); ok {
					cr.outcome.waits, cr.outcome.runs = append(cr.outcome.waits, wait), append(cr.outcome.runs, run)
				}
			}
		}
		cr.outcome.occupancy = float64(t.stack.Controller.DB.UsedBlocks()) / float64(t.stack.Cluster.TotalBlocks())
		// Nothing was undeployed while the list was compiling; now every
		// instance runs once (the model-time outputs of all eight designs)
		// and is taken down.
		for c, cl := range clients {
			for _, up := range ups[c] {
				_, _, err := cl.timedExecute(0, 0, tenants[c], up.app, sz.churnTokens)
				if uerr := cl.timedUndeploy(0, 0, tenants[c], up.app); err == nil {
					err = uerr
				}
				if err != nil {
					t.close()
					return cr, err
				}
			}
		}
		cr.outcome.t = t
		cr.outcome.total = takeTallies(clients)
		cr.outcome.window = cr.outcome.total
		if traced {
			r.spans = mergeSpans(clients[0].rec, clients[1].rec)
		}
		return cr, nil
	}

	// Untraced: repetitions until the window is used up. Traced: one
	// untraced repetition as the base, then the traced one.
	var done []coldRep
	begin := time.Now()
	for {
		traced := e.traced && len(done) == 1
		cr, err := rep(traced)
		if err != nil {
			return err
		}
		done = append(done, cr)
		if (e.traced && len(done) == 2) || (!e.traced && time.Since(begin) >= sz.seconds) {
			break
		}
		// Every repetition's stack passes the gate; the last one is also
		// the one finish measures on.
		_, err = gate(r, cr.outcome)
		cr.outcome.t.close()
		if err != nil {
			return err
		}
	}
	last := done[len(done)-1]
	defer last.outcome.t.close()

	var walls, perDesign []float64
	var measured time.Duration
	o := last.outcome
	o.window, o.waits, o.runs = tally{}, nil, nil
	for _, cr := range done {
		walls = append(walls, cr.wall.Seconds())
		perDesign = append(perDesign, cr.perDesign...)
		measured += cr.wall
		o.window.add(cr.outcome.window)
		o.waits, o.runs = append(o.waits, cr.outcome.waits...), append(o.runs, cr.outcome.runs...)
	}
	r.Params["repetitions"] = len(done)
	r.Params["compile_cold_s_each"] = walls
	r.e2e.put("compile_cold_s", "s", median(walls), len(walls))
	// One op is one design brought up from never seen, about a second of
	// work, so there is nothing to slice; and the designs differ by a
	// factor of six, so a percentile over all bring-ups would say which
	// design sits at that rank, and flip between neighbours. Each design's
	// repetitions are reduced to their median first: the percentiles are
	// then over the eight designs, and name the same design every run.
	byDesign := make([][]float64, len(sz.coldDesigns))
	for _, cr := range done {
		for n, o := range sch.perClient[0] {
			byDesign[o.Design] = append(byDesign[o.Design], cr.perDesign[n])
		}
	}
	designUs := column(byDesign, median)
	sort.Float64s(designUs)
	r.e2e.put("ops_per_s", "1/s", float64(len(perDesign))/measured.Seconds(), len(perDesign))
	r.e2e.put("op_p50_us", "us", percentile(designUs, 50), len(perDesign))
	r.e2e.put("op_p90_us", "us", percentile(designUs, 90), len(perDesign))
	o.achievedRate = float64(len(perDesign)) / measured.Seconds()
	o.overhead = 1
	if e.traced {
		o.overhead = done[1].wall.Seconds() / done[0].wall.Seconds()
	}
	return e.finish(r, o)
}
