package main

import (
	"fmt"
	"net/http"
	"time"

	"vital/internal/sched"
)

// pollInterval is the gap between ticket polls after the first, which
// goes out as soon as the submit is answered.
const pollInterval = 250 * time.Microsecond

// submitAnswer is the part of the gateway's 202 the generator reads.
type submitAnswer struct {
	App         string       `json:"app"`
	ColdCompile bool         `json:"cold_compile"`
	Coalesced   bool         `json:"coalesced"`
	Ticket      sched.Ticket `json:"ticket"`
}

// submit sends POST /submit for the tenant.
func (c *client) submit(tenant, design string, batch bool) (submitAnswer, error) {
	priority := "latency"
	if batch {
		priority = "batch"
	}
	body := fmt.Sprintf(`{"design":%q,"priority":%q,"mem_quota_bytes":%d}`, design, priority, c.memQuota)
	var ans submitAnswer
	err := c.doJSON(http.MethodPost, c.t.front+"/submit", tenant, []byte(body), http.StatusAccepted, &ans)
	if err == nil {
		if ans.ColdCompile {
			c.tally.cold++
		}
		if ans.Coalesced {
			c.tally.coalesced++
		}
	}
	return ans, err
}

// poll reads one ticket through the gateway.
func (c *client) poll(id string) (sched.Ticket, error) {
	c.tally.polls++
	var t sched.Ticket
	err := c.doJSON(http.MethodGet, c.t.front+"/deployments/"+id, "", nil, http.StatusOK, &t)
	return t, err
}

// terminal reports whether the ticket has finished, and tallies how.
func (c *client) terminal(t sched.Ticket) (done bool, err error) {
	switch t.State {
	case sched.TicketSucceeded:
		c.tally.deploys++
		return true, nil
	case sched.TicketFailed:
		c.tally.failed++
		if t.Retryable {
			c.tally.retryable++
		}
		return true, fmt.Errorf("ticket %s for %s failed: %s", t.ID, t.App, t.Error)
	}
	return false, nil
}

// execStats is the model-time part of core.ExecutionStats: what the
// simulated hardware did, which must not depend on how fast the host ran
// it. Comparable, so "repeats exactly" is ==.
type execStats struct {
	Tokens, Cycles, GatedCycles   uint64
	NumActors                     int
	DRAMReadBytes, DRAMWriteBytes uint64
}

// execute runs a deployed app for tokens through the gateway.
func (c *client) execute(tenant, app string, tokens uint64) (execStats, error) {
	body := fmt.Sprintf(`{"app":%q,"tokens":%d}`, app, tokens)
	var ans struct {
		Stats execStats `json:"stats"`
	}
	err := c.doJSON(http.MethodPost, c.t.front+"/execute", tenant, []byte(body), http.StatusOK, &ans)
	if err == nil && ans.Stats.Tokens != tokens {
		c.tally.ok--
		c.tally.failed++
		err = fmt.Errorf("execute %s: completed %d of %d tokens", app, ans.Stats.Tokens, tokens)
	}
	return ans.Stats, err
}

// undeploy stops a tenant's app through the gateway.
func (c *client) undeploy(tenant, app string) error {
	body := fmt.Sprintf(`{"app":%q}`, app)
	_, err := c.do(http.MethodPost, c.t.front+"/undeploy", tenant, []byte(body), http.StatusOK)
	if err == nil {
		c.tally.undeploys++
	}
	return err
}

// cycleTimes is what one tenant cycle measured.
type cycleTimes struct {
	submit, ready, exec, cycle time.Duration
	app                        string
	ticket                     sched.Ticket
	stats                      execStats
	cold                       bool
}

// awaitSpans adds the two spans derived from the ticket's own timestamps
// under the await span: how long the ticket sat in the queue and how long
// the worker's deploy ran. The backend runs in this process, so its
// clock is the recorder's.
func (c *client) awaitSpans(parent int, req uint64, t sched.Ticket) {
	if c.rec == nil || t.Started == nil || t.Finished == nil {
		return
	}
	c.rec.add("queue.wait", parent, req, t.Enqueued, *t.Started)
	c.rec.add("deploy", parent, req, *t.Started, *t.Finished)
}

// await polls the ticket until it is terminal: at once, then every
// pollInterval.
func (c *client) await(parent int, req uint64, id string) (sched.Ticket, error) {
	aw := c.rec.open("await", parent, req, time.Now())
	for {
		p0 := time.Now()
		t, err := c.poll(id)
		now := time.Now()
		c.rec.add("poll", aw, req, p0, now)
		if err != nil {
			c.rec.close(aw, now)
			return t, err
		}
		if done, err := c.terminal(t); done {
			c.awaitSpans(aw, req, t)
			c.rec.close(aw, now)
			return t, err
		}
		time.Sleep(pollInterval)
	}
}

// bringUp takes a tenant's design from submitted to deployed through the
// gateway: POST /submit, then the ticket polled until it is terminal.
// start is when the submit was due, which is where the caller's root span
// (parent) begins; ready is measured from it.
func (c *client) bringUp(parent int, req uint64, start time.Time, tenant, design string, batch bool) (cycleTimes, error) {
	var ct cycleTimes
	ans, err := c.submit(tenant, design, batch)
	now := time.Now()
	c.rec.add("submit", parent, req, start, now)
	if err != nil {
		return ct, err
	}
	ct.submit, ct.cold, ct.app = now.Sub(start), ans.ColdCompile, ans.App
	ct.ticket, err = c.await(parent, req, ans.Ticket.ID)
	ct.ready = time.Since(start)
	return ct, err
}

// cycle runs one closed-loop tenant cycle through the gateway: submit,
// await the ticket, execute, undeploy. If the execute fails the app is
// still undeployed, so one failure does not poison the tenant's later
// cycles.
func (c *client) cycle(req uint64, tenant, design string, batch bool, tokens uint64) (cycleTimes, error) {
	start := time.Now()
	root := c.rec.open("cycle", 0, req, start)
	defer func() { c.rec.close(root, time.Now()) }()

	ct, err := c.bringUp(root, req, start, tenant, design, batch)
	if err != nil {
		return ct, err
	}
	ct.stats, ct.exec, err = c.timedExecute(root, req, tenant, ct.app, tokens)
	uerr := c.timedUndeploy(root, req, tenant, ct.app)
	if err == nil {
		err = uerr
	}
	ct.cycle = time.Since(start)
	return ct, err
}

// timedExecute is execute under an "execute" span, with its round trip.
func (c *client) timedExecute(parent int, req uint64, tenant, app string, tokens uint64) (execStats, time.Duration, error) {
	start := time.Now()
	stats, err := c.execute(tenant, app, tokens)
	now := time.Now()
	c.rec.add("execute", parent, req, start, now)
	return stats, now.Sub(start), err
}

// timedUndeploy is undeploy under an "undeploy" span.
func (c *client) timedUndeploy(parent int, req uint64, tenant, app string) error {
	start := time.Now()
	err := c.undeploy(tenant, app)
	c.rec.add("undeploy", parent, req, start, time.Now())
	return err
}
