package main

import (
	"fmt"
	"sync"
	"time"
)

// streamClients is the closed-loop client count of execute_stream.
const streamClients = 2

// streamTenant owns the three long-lived apps; both connections carry its
// token.
const streamTenant = "s0000"

// streamQuota is the DRAM quota each app is deployed with. core.Execute
// maps a DMA window of at least one 2 MiB page into the app's memory
// domain on every call and never unmaps it, so under the default 1 GiB
// quota the 513th call of an app is refused; 32 GiB lasts 16 384 calls per
// app, several windows' worth, and three such domains fit one board's
// 128 GiB. The leak is the program's, and this change may not touch the
// program.
const streamQuota = 32 << 30

// streamState is an execute_stream stack with its apps deployed.
type streamState struct {
	clients []*client
	apps    []string // instance names, index-aligned with the sizing's streamApps
}

// streamSample is one measured execute call.
type streamSample struct {
	client, app int
	us          float64
	at          float64 // completion, seconds into the window
	stat        execStats
}

// passLatencies sums each client's consecutive calls in groups of apps:
// the latency of one pass over the apps. samples hold each client's calls
// in the order it made them; a trailing partial pass is dropped.
func passLatencies(samples []streamSample, apps int) []opSample {
	var out []opSample
	sum, n := map[int]float64{}, map[int]int{}
	for _, s := range samples {
		sum[s.client] += s.us
		if n[s.client]++; n[s.client] == apps {
			out = append(out, opSample{us: sum[s.client], at: s.at})
			sum[s.client], n[s.client] = 0, 0
		}
	}
	return out
}

// filter keeps the samples keep accepts.
func filter[T any](samples []T, keep func(T) bool) []T {
	var out []T
	for _, s := range samples {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// runExecuteStream is the data plane: long execute calls on three fixed
// placements, so the cycle-level interconnect and memory models do the
// work and the control path is idle between the set-up and the gate.
func runExecuteStream(e *env, r *result) error {
	sz := e.sz
	// Whole permutations of the apps laid end to end, per client: every
	// app is called equally often, the seed decides the interleaving.
	// 1<<14 rounds outlast a 60 s window at ten times the reference rate.
	sch := orderSchedule("execute_stream", e.seed, streamClients, len(sz.streamApps), 1<<14)
	r.ScheduleHash = sch.hash
	r.Params["clients"] = streamClients
	r.Params["apps"] = sz.streamApps
	r.Params["tokens"] = sz.streamTokens
	r.Params["mem_quota_bytes"] = uint64(streamQuota)

	var waits, runs []float64
	setup := func() (*tiers, streamState, time.Duration, error) {
		waits, runs = nil, nil
		t, err := boot(0, []string{streamTenant})
		if err != nil {
			return nil, streamState{}, 0, err
		}
		var st streamState
		for c := 0; c < streamClients; c++ {
			st.clients = append(st.clients, t.newClient())
		}
		st.clients[0].memQuota = streamQuota
		// One client deploys the apps in list order on the empty
		// cluster, so every run executes on the same placement.
		start := time.Now()
		for _, design := range sz.streamApps {
			up, err := st.clients[0].bringUp(0, 0, time.Now(), streamTenant, design, false)
			if err != nil {
				t.close()
				return nil, st, 0, fmt.Errorf("deploying %s: %w", design, err)
			}
			r.checkBlocks(design, up.ticket)
			st.apps = append(st.apps, up.app)
			if wait, run, ok := ticketTimes(up.ticket); ok {
				waits, runs = append(waits, wait), append(runs, run)
			}
		}
		return t, st, time.Since(start), nil
	}
	t, st, setupSt, err := repeatSetup(e, setup)
	if err != nil {
		return err
	}
	defer t.close()
	t.startLoops()

	// window drives both clients for d (calls == 0) or for a fixed number
	// of calls each, and returns their samples.
	window := func(d time.Duration, calls int, traced bool) ([]streamSample, error) {
		begin := time.Now()
		deadline := begin.Add(d)
		per := make([][]streamSample, streamClients)
		errs := make([]error, streamClients)
		var wg sync.WaitGroup
		for c := 0; c < streamClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, ops := st.clients[c], sch.perClient[c]
				cl.rec = e.rec(c, traced)
				for n := 0; (calls == 0 && time.Now().Before(deadline)) || n < calls; n++ {
					app := ops[n%len(ops)].Design
					stat, took, err := cl.timedExecute(0, uint64(c)<<40|uint64(n+1), streamTenant, st.apps[app], sz.streamTokens)
					if err != nil {
						errs[c] = err
						return
					}
					per[c] = append(per[c], streamSample{client: c, app: app, us: micros(took), at: time.Since(begin).Seconds(), stat: stat})
				}
			}(c)
		}
		wg.Wait()
		var all []streamSample
		for c := range per {
			if errs[c] != nil {
				return nil, errs[c]
			}
			all = append(all, per[c]...)
		}
		return all, nil
	}

	warmStart := time.Now()
	if _, err := window(0, sz.streamWarm*len(sz.streamApps), false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.reportSetup(setupSt, time.Since(warmStart))
	setupTally := takeTallies(st.clients)

	overhead, measured := 1.0, sz.seconds
	var samples []streamSample
	us := func(s streamSample) float64 { return s.us }
	if e.traced {
		base, err := window(sz.seconds/3, 0, false)
		if err != nil {
			return err
		}
		measured -= sz.seconds / 3
		if samples, err = window(measured, 0, true); err != nil {
			return err
		}
		passUs := func(s []streamSample) []float64 {
			return column(passLatencies(s, len(st.apps)), func(o opSample) float64 { return o.us })
		}
		overhead = median(passUs(samples)) / median(passUs(base))
		r.spans = mergeSpans(st.clients[0].rec, st.clients[1].rec)
	} else if samples, err = window(measured, 0, false); err != nil {
		return err
	}

	// Model time must not depend on the host: every call of an app has to
	// report exactly the statistics its first call did.
	first := make([]*execStats, len(st.apps))
	for i := range samples {
		s := &samples[i]
		if first[s.app] == nil {
			first[s.app] = &s.stat
		} else if *first[s.app] != s.stat {
			r.failf("%s: model-time statistics changed between calls: %+v then %+v", st.apps[s.app], *first[s.app], s.stat)
			break
		}
	}

	// The unit of work is one pass over the apps — a client's consecutive
	// calls, one of each app, the seed deciding the order inside a pass —
	// because single calls fall into one latency cluster per app, and the
	// median of clusters says which cluster is in the middle, not how
	// fast anything ran.
	passes := passLatencies(samples, len(st.apps))
	r.reportOps(passes, measured, true)
	r.e2e.put("exec_tokens_per_s", "1/s", float64(len(samples))*float64(sz.streamTokens)/measured.Seconds(), len(samples))
	for i, design := range sz.streamApps {
		one := column(filter(samples, func(s streamSample) bool { return s.app == i }), us)
		r.e2e.put("exec_p50_us."+design, "us", median(one), len(one))
	}

	// The tickets this workload has are the three the set-up deployed.
	o := outcome{t: t, total: setupTally, designs: sz.streamApps, overhead: overhead, waits: waits, runs: runs, liveApps: st.apps,
		occupancy:    float64(t.stack.Controller.DB.UsedBlocks()) / float64(t.stack.Cluster.TotalBlocks()),
		achievedRate: float64(len(samples)) / measured.Seconds()}
	for _, cl := range st.clients {
		o.window.add(cl.tally)
	}
	o.total.add(o.window)
	return e.finish(r, o)
}
