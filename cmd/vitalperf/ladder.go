package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"vital/internal/cluster"
	"vital/internal/core"
	"vital/internal/sched"
	"vital/internal/workload"
)

// ladderTenant is the tenant the ladder's gateway rungs submit as; boot
// mints its token on every stack.
const ladderTenant = "ladder"

// ladderBudget bounds the timed part of one rung (of one app, on the
// execute rung): a rung stops at the sizing's call count or here,
// whichever comes first, and reports how many calls it timed.
const ladderBudget = 2 * time.Second

// rung times call until the sizing's count or the budget is reached, after
// a tenth as many untimed calls, and returns the samples in microseconds.
// call returns the duration it wants counted, so a rung can leave its own
// clean-up (awaiting the ticket, undeploying) out.
func (e *env) rung(call func() (time.Duration, error)) ([]float64, error) {
	n := e.sz.ladderCalls
	for i := 0; i < n/10; i++ {
		if _, err := call(); err != nil {
			return nil, err
		}
	}
	samples := make([]float64, 0, n)
	for start := time.Now(); len(samples) < n && time.Since(start) < ladderBudget; {
		d, err := call()
		if err != nil {
			return nil, err
		}
		samples = append(samples, micros(d))
	}
	return samples, nil
}

// ladder measures each layer of the submit path, and the layers beside
// it, by calling its public functions directly on the stack the workload
// just ran on — so every rung sees that workload's cluster size, registry
// size and ticket-table depth — and one rung further out each time:
// Enqueue, the backend handler on a recorder, the same over loopback, the
// gateway handler on a recorder, the gateway over loopback. The difference
// between neighbouring rungs is what the outer one adds. It runs after the
// gate: it deploys and undeploys on its own account.
func (e *env) ladder(r *result, o outcome) error {
	t := o.t
	ct := t.stack.Controller
	ctx := context.Background()
	design := o.designs[0]
	cl := t.newClient()
	put := func(name string, samples []float64) {
		r.layer.put(name, "us", median(samples), len(samples))
	}

	// The ladder's own instance of every design: one submit each brings
	// the rebrand through the gateway, so both tiers know the name.
	apps := make([]string, len(o.designs))
	for i, d := range o.designs {
		up, err := cl.bringUp(0, 0, time.Now(), ladderTenant, d, false)
		if err != nil {
			return fmt.Errorf("ladder instance of %s: %w", d, err)
		}
		if err := ct.Undeploy(up.app); err != nil {
			return err
		}
		apps[i] = up.app
	}
	app := apps[0]

	// settle waits for a ticket the rung enqueued to finish and takes the
	// deployment down again, outside the rung's timing.
	settle := func(id string) error {
		for {
			tk, ok := ct.Async().Get(id)
			if !ok {
				return fmt.Errorf("ticket %s vanished", id)
			}
			if tk.State == sched.TicketFailed {
				return fmt.Errorf("ticket %s failed: %s", id, tk.Error)
			}
			if tk.State == sched.TicketSucceeded {
				return ct.Undeploy(app)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	// ticketID digs the ticket out of a 202 body: the backend's
	// {"ticket": {...}} and the gateway's answer share that field.
	ticketID := func(body []byte) (string, error) {
		var ans struct {
			Ticket sched.Ticket `json:"ticket"`
		}
		if err := json.Unmarshal(body, &ans); err != nil || ans.Ticket.ID == "" {
			return "", fmt.Errorf("no ticket in %s", bytes.TrimSpace(body))
		}
		return ans.Ticket.ID, nil
	}

	// Allocator: Allocate + Claim + ReleaseApp on a database of the
	// stack's board count, filled to the occupancy the window ended at
	// with apps of the workload's own sizes.
	alloc, err := e.allocRung(len(t.stack.Cluster.Boards), o)
	if err != nil {
		return err
	}
	put("sched.resourcedb.alloc_cycle_us", alloc)

	// Controller: Deploy and Undeploy direct, each timed in a rung of its
	// own with the other as its clean-up.
	samples, err := e.rung(func() (time.Duration, error) {
		start := time.Now()
		_, err := ct.Deploy(app, 0)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		return d, ct.Undeploy(app)
	})
	if err != nil {
		return err
	}
	put("sched.controller.deploy_us", samples)
	samples, err = e.rung(func() (time.Duration, error) {
		if _, err := ct.Deploy(app, 0); err != nil {
			return 0, err
		}
		start := time.Now()
		err := ct.Undeploy(app)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	put("sched.controller.undeploy_us", samples)

	// Rung 1: admission alone.
	samples, err = e.rung(func() (time.Duration, error) {
		start := time.Now()
		tk, err := ct.Async().Enqueue(ctx, app, 0, true, sched.PriorityLatency)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		return d, settle(tk.ID)
	})
	if err != nil {
		return err
	}
	put("sched.async.enqueue_us", samples)
	enqueue := median(samples)

	// Rung 2: the backend's handler, no network.
	deployBody := []byte(fmt.Sprintf(`{"app":%q}`, app))
	const deployPath = "/deploy?async=1&priority=latency"
	samples, err = e.rung(func() (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, deployPath, bytes.NewReader(deployBody))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		start := time.Now()
		t.backendHandler.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("backend handler: %d %s", rec.Code, rec.Body.Bytes())
		}
		id, err := ticketID(rec.Body.Bytes())
		if err != nil {
			return 0, err
		}
		return d, settle(id)
	})
	if err != nil {
		return err
	}
	put("sched.http.handler_us", samples)
	handler := median(samples)

	// Rung 3: the same request over loopback — one HTTP hop.
	samples, err = e.rung(func() (time.Duration, error) {
		start := time.Now()
		body, err := cl.do(http.MethodPost, t.backend+deployPath, "", deployBody, http.StatusAccepted)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		id, err := ticketID(body)
		if err != nil {
			return 0, err
		}
		return d, settle(id)
	})
	if err != nil {
		return err
	}
	put("sched.http.loopback_us", samples)
	loopback := median(samples)

	// Rung 4: the gateway's handler on a recorder; its forward to the
	// backend still crosses loopback.
	submitBody := []byte(fmt.Sprintf(`{"design":%q}`, design))
	samples, err = e.rung(func() (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/submit", bytes.NewReader(submitBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+token(ladderTenant))
		rec := httptest.NewRecorder()
		start := time.Now()
		t.gatewayHandler.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("gateway handler: %d %s", rec.Code, rec.Body.Bytes())
		}
		id, err := ticketID(rec.Body.Bytes())
		if err != nil {
			return 0, err
		}
		return d, settle(id)
	})
	if err != nil {
		return err
	}
	put("gateway.submit_inproc_us", samples)

	// Rung 5: the full two-hop submit, one client on an idle stack.
	samples, err = e.rung(func() (time.Duration, error) {
		start := time.Now()
		ans, err := cl.submit(ladderTenant, design, false)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		return d, settle(ans.Ticket.ID)
	})
	if err != nil {
		return err
	}
	put("gateway.submit_twohop_us", samples)
	r.layer.put("gateway.self_us", "us", median(samples)-loopback, len(samples))
	if twohop := median(samples); !(enqueue < handler && handler < loopback && loopback < twohop) {
		r.failf("ladder is not monotone: enqueue %.1f us, handler %.1f us, loopback %.1f us, two-hop %.1f us", enqueue, handler, loopback, twohop)
	}

	// Compile cache: a known design under a fresh name — hash, lookup,
	// rebranding clone.
	spec, err := workload.ParseSpec(design)
	if err != nil {
		return err
	}
	hit := workload.BuildDesign(spec)
	hit.Name = ladderTenant + ".hit"
	samples, err = e.rung(func() (time.Duration, error) {
		start := time.Now()
		app, err := t.stack.Compile(hit)
		if err == nil && !app.CacheHit {
			err = fmt.Errorf("compile of known design %s missed the cache", design)
		}
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	put("core.compile.cache_hit_us", samples)

	if err := e.executeRung(r, o, apps); err != nil {
		return err
	}
	return e.compileRung(r, o)
}

// allocRung times the allocator's deploy/undeploy cycle at the workload's
// cluster size and fill, on a database of its own (the live one belongs to
// the controller).
func (e *env) allocRung(boards int, o outcome) ([]float64, error) {
	c, err := cluster.New(cluster.Config{NumBoards: boards})
	if err != nil {
		return nil, err
	}
	db := sched.NewResourceDB(c)
	var sizes []int
	for _, d := range o.designs {
		spec, err := workload.ParseSpec(d)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, spec.PaperBlocks())
	}
	var live []string
	next := 0
	admit := func() error {
		refs, err := sched.Allocate(db, sizes[next%len(sizes)])
		if err != nil {
			return err
		}
		name := fmt.Sprintf("rung-%d", next)
		next++
		live = append(live, name)
		return db.Claim(name, refs)
	}
	// At least one app is always live, so the cycle has one to release.
	for target := int(o.occupancy * float64(c.TotalBlocks())); len(live) == 0 || db.UsedBlocks() < target; {
		if err := admit(); err != nil {
			return nil, fmt.Errorf("filling the allocator rung: %w", err)
		}
	}
	samples, err := e.rung(func() (time.Duration, error) {
		start := time.Now()
		db.ReleaseApp(live[0])
		live = live[1:]
		err := admit()
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	if problems := db.VerifyIndex(); len(problems) != 0 {
		return nil, fmt.Errorf("allocator rung: free-run index drifted: %v", problems)
	}
	return samples, nil
}

// executeRung times ExecuteByName direct for every app of the workload and
// reports the model-time statistics of the calls, summed over the apps.
// A workload whose apps are live (execute_stream) is measured on those, as
// placed; otherwise each of the ladder's instances is deployed alone on
// the empty cluster, so the placement — and with it every model-time
// figure — is the same on every run.
func (e *env) executeRung(r *result, o outcome, apps []string) error {
	ct := o.t.stack.Controller
	tokens := e.sz.churnTokens
	if o.liveApps != nil {
		apps, tokens = o.liveApps, e.sz.streamTokens
	}
	var medians []float64
	calls := 0
	var sum execStats
	var blockCycles uint64
	for _, app := range apps {
		if o.liveApps == nil {
			// The quota covers the DMA window every call leaves mapped
			// (see streamQuota).
			if _, err := ct.Deploy(app, streamQuota); err != nil {
				return err
			}
		}
		var first *core.ExecutionStats
		samples, err := e.rung(func() (time.Duration, error) {
			start := time.Now()
			st, err := o.t.stack.ExecuteByName(app, tokens)
			d := time.Since(start)
			if err != nil {
				return 0, err
			}
			if first == nil {
				first = st
			} else if modelTime(first) != modelTime(st) {
				r.failf("%s: model-time statistics changed between direct calls", app)
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		if o.liveApps == nil {
			if err := ct.Undeploy(app); err != nil {
				return err
			}
		}
		medians = append(medians, median(samples))
		calls += len(samples)
		m := modelTime(first)
		sum.Cycles += m.Cycles
		sum.GatedCycles += m.GatedCycles
		sum.NumActors += m.NumActors
		sum.DRAMReadBytes += m.DRAMReadBytes
		sum.DRAMWriteBytes += m.DRAMWriteBytes
		blockCycles += m.Cycles * uint64(m.NumActors)
	}
	// The apps' medians averaged: a median over all calls would only say
	// which app's cluster sits in the middle.
	mean := 0.0
	for _, m := range medians {
		mean += m / float64(len(medians))
	}
	r.layer.put("core.execute.call_us", "us", mean, calls)
	r.layer.put("interconnect.model_cycles", "count", float64(sum.Cycles), 0)
	r.layer.put("interconnect.gated_cycles", "count", float64(sum.GatedCycles), 0)
	// Gated block-cycles over all block-cycles, as ExecutionStats has it.
	r.layer.put("interconnect.overhead_fraction", "ratio", float64(sum.GatedCycles)/float64(max(blockCycles, 1)), 0)
	r.layer.put("memvirt.dram_bytes", "count", float64(sum.DRAMReadBytes+sum.DRAMWriteBytes), 0)
	return nil
}

// modelTime is the comparable, model-time part of a direct call's
// statistics.
func modelTime(s *core.ExecutionStats) execStats {
	return execStats{
		Tokens: s.Tokens, Cycles: s.Cycles, GatedCycles: s.GatedCycles, NumActors: s.NumActors,
		DRAMReadBytes: s.DRAMReadBytes, DRAMWriteBytes: s.DRAMWriteBytes,
	}
}

// compileRung compiles every design of the workload once more, direct and
// past the cache, for the Fig. 8 breakdown: the compile pipeline's layers
// by tool time, summed over the designs. Each compile leaves a "compile"
// span with one child per Fig. 5 stage, laid end to end in flow order
// with its tool time as its length (the per-block stages ran in parallel,
// so the children can outlast the parent's wall time).
func (e *env) compileRung(r *result, o outcome) error {
	rec := newRecorder(e.epoch, recorderLadder)
	var total core.StageTimes
	var wall time.Duration
	blocks, channels := 0, 0
	for i, d := range o.designs {
		spec, err := workload.ParseSpec(d)
		if err != nil {
			return err
		}
		design := workload.BuildDesign(spec)
		design.Name = ladderTenant + ".nocache." + d
		start := time.Now()
		app, err := o.t.stack.CompileWithOptions(context.Background(), design, core.CompileOptions{NoCache: true})
		if err != nil {
			return err
		}
		if app.Blocks() != spec.PaperBlocks() {
			r.failf("%s compiled direct to %d blocks, Table 2 says %d", d, app.Blocks(), spec.PaperBlocks())
		}
		req := uint64(recorderLadder)<<40 | uint64(i+1)
		root := rec.add("compile", 0, req, start, start.Add(app.Wall))
		at := start
		for _, stage := range []struct {
			name string
			took time.Duration
		}{
			{"synthesis", app.Times.Synthesis}, {"partition", app.Times.Partition},
			{"interface_gen", app.Times.InterfaceGen}, {"local_pnr", app.Times.LocalPNR},
			{"relocation", app.Times.Relocation}, {"global_pnr", app.Times.GlobalPNR},
		} {
			rec.add(stage.name, root, req, at, at.Add(stage.took))
			at = at.Add(stage.took)
		}
		total.Synthesis += app.Times.Synthesis
		total.Partition += app.Times.Partition
		total.InterfaceGen += app.Times.InterfaceGen
		total.LocalPNR += app.Times.LocalPNR
		total.Relocation += app.Times.Relocation
		total.GlobalPNR += app.Times.GlobalPNR
		wall += app.Wall
		blocks += app.Blocks()
		channels += len(app.Channels)
	}
	r.spans = append(r.spans, rec.spans...)
	n := len(o.designs)
	r.layer.put("core.compile.wall_s", "s", wall.Seconds(), n)
	r.layer.put("hls.synthesis_s", "s", total.Synthesis.Seconds(), n)
	r.layer.put("partition.partition_s", "s", total.Partition.Seconds(), n)
	r.layer.put("core.compile.interface_gen_s", "s", total.InterfaceGen.Seconds(), n)
	r.layer.put("pnr.local_s", "s", total.LocalPNR.Seconds(), n)
	r.layer.put("bitstream.relocation_s", "s", total.Relocation.Seconds(), n)
	r.layer.put("pnr.global_s", "s", total.GlobalPNR.Seconds(), n)
	r.layer.put("partition.blocks", "count", float64(blocks), n)
	r.layer.put("partition.cut_channels", "count", float64(channels), n)
	return nil
}

// recorderLadder is the ladder's recorder number.
const recorderLadder = 3
