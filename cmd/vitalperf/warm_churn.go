package main

import (
	"fmt"
	"sync"
	"time"
)

// churnClients is the closed-loop client count: the reference box has two
// cores and the server runs in this process, so two is already one client
// per core.
const churnClients = 2

// churnState is a warm_churn stack ready for its window.
type churnState struct {
	clients []*client
	// cursor is each client's position in its op list after the warm-up.
	cursor []int
}

// churnSample is what one measured cycle contributes, in microseconds.
// wait and run are the ticket's own queue wait and worker run time.
type churnSample struct {
	submit, ready, exec, cycle, wait, run float64
	at                                    float64 // completion, seconds into the window
}

func tenantNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return names
}

// runWarmChurn is the hot control path with small state: two closed-loop
// clients cycle submit → await → execute → undeploy over designs the
// backend has compiled, so the gateway, the HTTP hop, the async queue,
// the controller and the allocator do nearly all the work.
func runWarmChurn(e *env, r *result) error {
	sz := e.sz
	tenants := tenantNames("t", sz.churnTenants)
	share := sz.churnTenants / churnClients
	// 1<<17 cycles per client outlasts a 60 s window at ten times the
	// reference box's rate; a client that still outruns it starts over.
	sch := churnSchedule(e.seed, churnClients, sz.churnTenants, len(sz.churnDesigns), 1<<17)
	r.ScheduleHash = sch.hash
	r.Params["clients"] = churnClients
	r.Params["tenants"] = sz.churnTenants
	r.Params["designs"] = sz.churnDesigns
	r.Params["warm_tickets"] = sz.warmTickets
	r.Params["tokens"] = sz.churnTokens

	setup := func() (*tiers, churnState, time.Duration, error) {
		t, err := boot(0, tenants)
		if err != nil {
			return nil, churnState{}, 0, err
		}
		st := churnState{cursor: make([]int, churnClients)}
		first := make([]string, churnClients)
		for c := 0; c < churnClients; c++ {
			st.clients = append(st.clients, t.newClient())
			first[c] = tenants[c*share]
		}
		cold, err := precompile(r, st.clients, first, sz.churnDesigns, sz.churnTokens)
		if err != nil {
			t.close()
			return nil, st, 0, err
		}
		return t, st, cold, nil
	}
	t, st, setupSt, err := repeatSetup(e, setup)
	if err != nil {
		return err
	}
	defer t.close()

	// Warm-up: every (tenant, design) instance once — the first use of
	// each is a rebrand round trip the window must not see, and creates
	// the instance's and the tenant's metric series — then the background
	// loops start and the schedule runs until the ticket target is passed.
	warmStart := time.Now()
	if err := touch(st.clients, tenants, sz.churnDesigns, sz.churnTokens); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	t.startLoops()
	err = eachClient(st.clients, func(c int, cl *client) error {
		ops := sch.perClient[c]
		for cl.tally.deploys < sz.warmTickets/churnClients {
			o := ops[st.cursor[c]%len(ops)]
			st.cursor[c]++
			if _, err := cl.cycle(0, tenants[o.Tenant], sz.churnDesigns[o.Design], o.Batch, sz.churnTokens); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.reportSetup(setupSt, time.Since(warmStart))
	setupTally := takeTallies(st.clients)

	// window drives both clients for d and returns their samples.
	window := func(d time.Duration, traced bool) []churnSample {
		begin := time.Now()
		deadline := begin.Add(d)
		per := make([][]churnSample, churnClients)
		var wg sync.WaitGroup
		for c := 0; c < churnClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, ops := st.clients[c], sch.perClient[c]
				cl.rec = e.rec(c, traced)
				for n := uint64(1); time.Now().Before(deadline); n++ {
					o := ops[st.cursor[c]%len(ops)]
					st.cursor[c]++
					ct, err := cl.cycle(uint64(c)<<40|n, tenants[o.Tenant], sz.churnDesigns[o.Design], o.Batch, sz.churnTokens)
					if err != nil {
						continue // tallied by the client; the cycle is missing from every latency figure
					}
					wait, run, _ := ticketTimes(ct.ticket)
					per[c] = append(per[c], churnSample{
						submit: micros(ct.submit), ready: micros(ct.ready),
						exec: micros(ct.exec), cycle: micros(ct.cycle), wait: wait, run: run,
						at: time.Since(begin).Seconds(),
					})
				}
			}(c)
		}
		wg.Wait()
		var all []churnSample
		for _, p := range per {
			all = append(all, p...)
		}
		return all
	}

	// A traced run spends a third of its window untraced on the same
	// stack, so the tracing overhead is the ratio of two medians taken
	// seconds apart in one process.
	overhead, measured := 1.0, sz.seconds
	var samples []churnSample
	if e.traced {
		base := window(sz.seconds/3, false)
		measured -= sz.seconds / 3
		samples = window(measured, true)
		cycle := func(s churnSample) float64 { return s.cycle }
		overhead = median(column(samples, cycle)) / median(column(base, cycle))
		r.spans = mergeSpans(st.clients[0].rec, st.clients[1].rec)
	} else {
		samples = window(measured, false)
	}

	cycles := column(samples, func(s churnSample) float64 { return s.cycle })
	r.reportOps(column(samples, func(s churnSample) opSample { return opSample{us: s.cycle, at: s.at} }), measured, true)
	r.e2e.put("cycles_per_s", "1/s", float64(len(samples))/measured.Seconds(), len(samples))
	r.e2e.timing("cycle", "us", cycles)
	r.e2e.timing("submit", "us", column(samples, func(s churnSample) float64 { return s.submit }))
	r.e2e.timing("ready", "us", column(samples, func(s churnSample) float64 { return s.ready }))
	r.e2e.put("exec_p50_us", "us", median(column(samples, func(s churnSample) float64 { return s.exec })), len(samples))

	o := outcome{t: t, total: setupTally, designs: sz.churnDesigns, overhead: overhead,
		achievedRate: float64(len(samples)) / measured.Seconds()}
	for _, cl := range st.clients {
		o.window.add(cl.tally)
	}
	o.total.add(o.window)
	// The window must be all warm: a cold submit in it means the warm-up
	// left an instance untouched, and the run measured something else.
	if o.window.cold != 0 {
		r.failf("%d submits in the measured window were cold; the warm-up must leave none", o.window.cold)
	}
	o.waits = column(samples, func(s churnSample) float64 { return s.wait })
	o.runs = column(samples, func(s churnSample) float64 { return s.run })
	return e.finish(r, o)
}

// column maps every sample through f: one field of each, usually.
func column[T, U any](samples []T, f func(T) U) []U {
	out := make([]U, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}
