package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// session is one open-loop tenant session: submit → await → execute →
// hold for its lifetime → undeploy, each step an event on the generator's
// single connection.
type session struct {
	op  op
	n   uint64
	due time.Time
	// recorded marks a session due inside the measured window; rec is its
	// span recorder, nil unless the session is traced.
	recorded bool
	rec      *recorder
	root, aw int

	tenant, app, ticket string
	// Microseconds. submit and ready run from due; upTo is due → execute
	// answered, cycle adds the undeploy (timed from when it was due), so
	// the scripted hold is in neither.
	submit, ready, exec, upTo, cycle float64
	wait, run                        float64
	holdFrom                         time.Time
	doneAt                           time.Time
	// reached: 1 submitted, 2 deployed and executed, 3 undeployed;
	// truncated marks an undeploy the end of the run brought forward.
	reached   int
	truncated bool
}

// sprawl is the state of one sprawl_open generator.
type sprawl struct {
	cl       *client
	loop     openLoop
	tenants  []string
	designs  []string
	tokens   uint64
	draining bool
	late     []float64 // start lateness of the recorded arrivals, microseconds
	sessions []*session
}

// arrive is the session's first event: the submit, timed from due.
func (sp *sprawl) arrive(s *session) func(time.Time) {
	return func(due time.Time) {
		if sp.draining {
			return // never started, never attempted
		}
		if s.recorded {
			sp.late = append(sp.late, micros(time.Since(due)))
		}
		s.root = s.rec.open("cycle", 0, s.n, due)
		ans, err := sp.cl.submit(s.tenant, sp.designs[s.op.Design], s.op.Batch)
		now := time.Now()
		s.rec.add("submit", s.root, s.n, due, now)
		if err != nil {
			s.rec.close(s.root, now)
			return
		}
		s.submit, s.app, s.ticket, s.reached = micros(now.Sub(due)), ans.App, ans.Ticket.ID, 1
		s.aw = s.rec.open("await", s.root, s.n, now)
		sp.loop.at(now, sp.poll(s))
	}
}

// poll reads the ticket once; a terminal ticket is followed at once by the
// execute, and the undeploy is scheduled a lifetime later.
func (sp *sprawl) poll(s *session) func(time.Time) {
	return func(time.Time) {
		p0 := time.Now()
		t, err := sp.cl.poll(s.ticket)
		now := time.Now()
		s.rec.add("poll", s.aw, s.n, p0, now)
		done := err != nil
		if err == nil {
			done, err = sp.cl.terminal(t)
		}
		if !done {
			sp.loop.at(now.Add(pollInterval), sp.poll(s))
			return
		}
		s.rec.close(s.aw, now)
		if err != nil {
			s.rec.close(s.root, now)
			return
		}
		if s.rec != nil && t.Started != nil && t.Finished != nil {
			s.rec.add("queue.wait", s.aw, s.n, t.Enqueued, *t.Started)
			s.rec.add("deploy", s.aw, s.n, *t.Started, *t.Finished)
		}
		s.ready = micros(now.Sub(s.due))
		s.wait, s.run, _ = ticketTimes(t)

		e0 := now
		_, err = sp.cl.execute(s.tenant, s.app, sp.tokens)
		now = time.Now()
		s.rec.add("execute", s.root, s.n, e0, now)
		if err == nil {
			s.exec, s.upTo, s.reached = micros(now.Sub(e0)), micros(now.Sub(s.due)), 2
		}
		hold := s.op.Lifetime
		if sp.draining {
			hold = 0
		}
		s.holdFrom = now
		sp.loop.at(now.Add(hold), sp.undeploy(s))
	}
}

// undeploy ends the session, timed from when the hold was due to end.
func (sp *sprawl) undeploy(s *session) func(time.Time) {
	return func(due time.Time) {
		if start := time.Now(); start.Before(due) {
			// The run is ending: the hold is cut short, and an undeploy
			// that was not due yet has no latency from due.
			due, s.truncated = start, true
		}
		s.rec.add("hold", s.root, s.n, s.holdFrom, due)
		err := sp.cl.undeploy(s.tenant, s.app)
		now := time.Now()
		s.rec.add("undeploy", s.root, s.n, due, now)
		s.rec.close(s.root, now)
		if err == nil && s.reached == 2 {
			s.cycle, s.reached, s.doneAt = s.upTo+micros(now.Sub(due)), 3, now
		}
	}
}

// operatorTick is one round of what an operator's tooling reads: the
// Prometheus exposition of both tiers, the cluster status, the placement
// report and one federated range query. It returns the two expositions'
// round trips summed, in milliseconds.
func operatorTick(cl *client, req uint64, due time.Time) (float64, error) {
	t := cl.t
	root := cl.rec.open("operator.tick", 0, req, due)
	var first error
	get := func(name, url string) time.Duration {
		start := time.Now()
		_, err := cl.do(http.MethodGet, url, "", nil, http.StatusOK)
		now := time.Now()
		cl.rec.add(name, root, req, start, now)
		if err != nil && first == nil {
			first = err
		}
		return now.Sub(start)
	}
	scrape := get("scrape.backend", t.backend+"/metrics?format=prometheus")
	scrape += get("scrape.gateway", t.front+"/metrics?format=prometheus")
	get("status", t.front+"/status")
	get("placement", t.backend+"/placement")
	get("query", t.front+"/query?series=vital_queue_depth&func=max&start=1m&step=5s")
	cl.rec.close(root, time.Now())
	return millis(scrape), first
}

// operate ticks every interval from start until deadline and returns the
// scrape time of each tick due at or after recordFrom; ticks due at or
// after traceFrom are traced.
func operate(cl *client, rec *recorder, every time.Duration, start, recordFrom, traceFrom, deadline time.Time) []float64 {
	var scrapes []float64
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if !due.Before(deadline) {
			return scrapes
		}
		time.Sleep(time.Until(due))
		cl.rec = nil
		if !due.Before(traceFrom) {
			cl.rec = rec
		}
		ms, err := operatorTick(cl, uint64(recorderOperator)<<40|uint64(k+1), due)
		if err == nil && !due.Before(recordFrom) {
			scrapes = append(scrapes, ms)
		}
	}
}

// recorderOperator is the operator connection's recorder number.
const recorderOperator = 2

// runSprawlOpen is the open-loop workload: Poisson session arrivals at a
// fixed rate on a large cluster while an operator scrapes both tiers, so
// reads run beside writes, hundreds of deployments are live, and the
// app-name population only grows.
func runSprawlOpen(e *env, r *result) error {
	sz := e.sz
	tenants := tenantNames("p", sz.sprawlTenants)
	span := sz.sprawlWarm + sz.seconds
	sch := sprawlSchedule(e.seed, sz.sprawlRate, span, sz.sprawlTenants, len(sz.churnDesigns), sz.meanLife, sz.capLife)
	r.ScheduleHash = sch.hash
	r.Params["boards"] = sz.sprawlBoards
	r.Params["tenants"] = sz.sprawlTenants
	r.Params["designs"] = sz.churnDesigns
	r.Params["rate_per_s"] = sz.sprawlRate
	r.Params["mean_life_s"] = sz.meanLife.Seconds()
	r.Params["cap_life_s"] = sz.capLife.Seconds()
	r.Params["warmup_s"] = sz.sprawlWarm.Seconds()
	r.Params["operator_every_s"] = sz.operatorEvery.Seconds()
	r.Params["tokens"] = sz.churnTokens

	// Connection 0 is the generator, connection 1 the operator; the
	// set-up uses both to compile the designs two at a time.
	setup := func() (*tiers, []*client, time.Duration, error) {
		t, err := boot(sz.sprawlBoards, tenants)
		if err != nil {
			return nil, nil, 0, err
		}
		clients := []*client{t.newClient(), t.newClient()}
		cold, err := precompile(r, clients, tenants[:2], sz.churnDesigns, sz.churnTokens)
		if err != nil {
			t.close()
			return nil, nil, 0, err
		}
		return t, clients, cold, nil
	}
	t, clients, setupSt, err := repeatSetup(e, setup)
	if err != nil {
		return err
	}
	defer t.close()
	// Every instance name the schedule will use is cycled once before
	// anything scrapes: see startLoops. The registry then holds the series
	// of every app that ever ran, live or not, from the first tick on.
	touchStart := time.Now()
	if err := touch(clients, tenants, sz.churnDesigns, sz.churnTokens); err != nil {
		return fmt.Errorf("touching instances: %w", err)
	}
	t.startLoops()
	touched := time.Since(touchStart)
	gen, oper := clients[0], clients[1]
	setupTally := takeTallies(clients)

	// One continuous schedule: the first sprawlWarm of it is the warm-up,
	// unrecorded; in a traced run the first third of the window stays
	// untraced, as the base the tracing overhead is measured against.
	start := time.Now()
	recordFrom := start.Add(sz.sprawlWarm)
	deadline := start.Add(span)
	traceFrom := deadline
	if e.traced {
		traceFrom = recordFrom.Add(sz.seconds / 3)
	}
	sp := &sprawl{cl: gen, tenants: tenants, designs: sz.churnDesigns, tokens: sz.churnTokens}
	rec, operRec := e.rec(0, true), e.rec(recorderOperator, true)
	scheduled := 0
	for i, o := range sch.perClient[0] {
		s := &session{op: o, n: uint64(i + 1), due: start.Add(o.Arrival), tenant: tenants[o.Tenant]}
		if s.recorded = !s.due.Before(recordFrom); s.recorded {
			scheduled++
		}
		if !s.due.Before(traceFrom) {
			s.rec = rec
		}
		sp.sessions = append(sp.sessions, s)
		sp.loop.at(s.due, sp.arrive(s))
	}

	var scrapes []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scrapes = operate(oper, operRec, sz.operatorEvery, start, recordFrom, traceFrom, deadline)
	}()
	sp.loop.runUntil(recordFrom)
	warmup := time.Since(start)
	warmTally := takeTallies(clients[:1])
	sp.loop.runUntil(deadline)
	wg.Wait()
	measured := time.Since(start) - warmup
	used := t.stack.Controller.DB.UsedBlocks()
	live := 0
	for _, s := range sp.sessions {
		if s.reached == 2 {
			live++
		}
	}
	// The window is over: sessions under way finish without their hold,
	// arrivals that never started are dropped.
	sp.draining = true
	sp.loop.drain()
	r.reportSetup(setupSt, touched+warmup)
	r.Params["live_at_end"] = live
	r.Params["used_blocks_at_end"] = used

	// Every recorded session counts in the figures of the steps it got
	// through; a failed step is missing from that figure and all later.
	var submit, ready, exec, cycle, base, traced []float64
	var ops []opSample
	o := outcome{t: t, designs: sz.churnDesigns, overhead: 1, scrapes: scrapes, late: sp.late,
		occupancy:  float64(used) / float64(t.stack.Cluster.TotalBlocks()),
		targetRate: float64(scheduled) / sz.seconds.Seconds()}
	completed := 0
	for _, s := range sp.sessions {
		if !s.recorded {
			continue
		}
		if s.reached >= 1 {
			submit = append(submit, s.submit)
		}
		if s.reached >= 2 {
			ready, exec = append(ready, s.ready), append(exec, s.exec)
			o.waits, o.runs = append(o.waits, s.wait), append(o.runs, s.run)
		}
		if s.reached == 3 {
			completed++
			if !s.truncated {
				cycle = append(cycle, s.cycle)
				ops = append(ops, opSample{us: s.cycle, at: s.doneAt.Sub(recordFrom).Seconds()})
				if s.rec != nil {
					traced = append(traced, s.cycle)
				} else {
					base = append(base, s.cycle)
				}
			}
		}
	}
	if len(cycle) == 0 {
		return fmt.Errorf("no session completed inside the window")
	}
	// The rate is the schedule's as delivered, over the whole window (the
	// sessions the end of the run cut short completed too); the latency
	// is taken per slice like every workload's.
	_, p50, p90 := opFigures(ops, measured, true)
	r.e2e.put("ops_per_s", "1/s", float64(completed)/measured.Seconds(), completed)
	r.e2e.put("op_p50_us", "us", p50, len(ops))
	r.e2e.put("op_p90_us", "us", p90, len(ops))
	r.e2e.timing("cycle", "us", cycle)
	r.e2e.timing("submit", "us", submit)
	r.e2e.timing("ready", "us", ready)
	r.e2e.put("exec_p50_us", "us", median(exec), len(exec))
	if e.traced {
		if len(base) == 0 || len(traced) == 0 {
			return fmt.Errorf("window too short to compare traced and untraced sessions")
		}
		o.overhead = median(traced) / median(base)
		r.spans = mergeSpans(rec, operRec)
	}
	o.achievedRate = float64(len(sp.late)) / measured.Seconds()

	// The window's tally is the generator's since the warm-up ended plus
	// the operator's (whose warm-up ticks are few and all succeeded).
	o.window = takeTallies(clients)
	o.total = setupTally
	o.total.add(warmTally)
	o.total.add(o.window)
	return e.finish(r, o)
}
