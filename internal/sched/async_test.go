package sched

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"
)

// parkWorkers pauses the pipeline and feeds each worker one sacrificial
// ticket. A worker that was already blocked in its dequeue select (it
// entered before Pause swapped the gate) absorbs a sacrifice, runs it, and
// only then blocks on the gate; a worker that had not reached the select
// yet parks immediately and leaves its sacrifice queued. Either way, once
// every sacrifice is terminal or the fallback deadline passes, no worker
// can dequeue anything further until Resume.
func parkWorkers(t *testing.T, p *AsyncPipeline) {
	t.Helper()
	p.Pause()
	sacrifices := make([]Ticket, 0, p.workers)
	for i := 0; i < p.workers; i++ {
		tk, err := p.Enqueue(context.Background(), "no-such-app", 0, true, PriorityLatency)
		if err != nil {
			t.Fatalf("sacrificial enqueue %d: %v", i, err)
		}
		sacrifices = append(sacrifices, tk)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, tk := range sacrifices {
		for {
			got, ok := p.Get(tk.ID)
			if !ok {
				t.Fatalf("sacrificial ticket %s vanished", tk.ID)
			}
			if got.State == TicketFailed || got.State == TicketSucceeded {
				break
			}
			if time.Now().After(deadline) {
				// Still queued after the grace period: its worker parked
				// before ever entering the dequeue select. Also safe.
				if got.State == TicketQueued {
					break
				}
				t.Fatalf("sacrificial ticket %s stuck in %s", tk.ID, got.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestAsyncShedsWhenClassFull(t *testing.T) {
	const depth, workers = 2, 1
	ct := NewControllerWithOptions(testCluster(), Options{QueueDepth: depth, QueueWorkers: workers})
	defer ct.Close()
	p := ct.Async()
	parkWorkers(t, p)

	// Flood the batch class (the sacrifices live in latency). A worker
	// caught in its dequeue select before Pause can still absorb at most
	// one ticket total before parking, so accepted ∈ [depth, depth+workers]
	// and the remainder must shed with ErrQueueFull.
	const flood = depth + workers + 3
	var shed int
	for i := 0; i < flood; i++ {
		_, err := p.Enqueue(context.Background(), "no-such-app", 0, true, PriorityBatch)
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("enqueue %d: unexpected error %v", i, err)
			}
			shed++
		}
	}
	if shed < flood-depth-workers || shed > flood-depth {
		t.Fatalf("shed %d of %d enqueues into a depth-%d queue, want %d..%d",
			shed, flood, depth, flood-depth-workers, flood-depth)
	}
	st := p.Stats()
	if st.Shed[PriorityBatch] != uint64(shed) {
		t.Fatalf("shed counter = %d, want %d", st.Shed[PriorityBatch], shed)
	}
	// Sheds only happen against a full class queue, and parked workers
	// cannot drain it, so the batch class must still be at capacity.
	if st.Depth[PriorityBatch] != depth {
		t.Fatalf("batch depth = %d, want %d", st.Depth[PriorityBatch], depth)
	}
	if sat := p.saturation(); sat < 0.99 {
		t.Fatalf("saturation = %v with a full class, want ~1", sat)
	}
	p.Resume()
}

func TestAsyncLatencyDrainsBeforeBatch(t *testing.T) {
	ct := NewControllerWithOptions(testCluster(), Options{QueueWorkers: 1})
	defer ct.Close()
	if err := ct.Bitstreams.Store("app1", compileToBitstreams(t, "app1")); err != nil {
		t.Fatal(err)
	}
	if err := ct.Bitstreams.Store("app2", compileToBitstreams(t, "app2")); err != nil {
		t.Fatal(err)
	}
	p := ct.Async()
	parkWorkers(t, p)

	// Batch first, latency second; the worker must still start the
	// latency ticket first.
	batch, err := p.Enqueue(context.Background(), "app1", 1<<20, false, PriorityBatch)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := p.Enqueue(context.Background(), "app2", 1<<20, false, PriorityLatency)
	if err != nil {
		t.Fatal(err)
	}
	p.Resume()

	await := func(id string) Ticket {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			tk, ok := p.Get(id)
			if !ok {
				t.Fatalf("ticket %s vanished", id)
			}
			if tk.State == TicketSucceeded || tk.State == TicketFailed {
				return tk
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("ticket %s not terminal", id)
		return Ticket{}
	}
	lt, bt := await(lat.ID), await(batch.ID)
	if lt.State != TicketSucceeded {
		t.Fatalf("latency ticket failed: %s", lt.Error)
	}
	if bt.State != TicketSucceeded {
		t.Fatalf("batch ticket failed: %s", bt.Error)
	}
	if !lt.Started.Before(*bt.Started) {
		t.Fatalf("batch started %v before latency %v despite lower priority", bt.Started, lt.Started)
	}
	if lt.Result == nil || lt.Result.App != "app2" {
		t.Fatalf("latency ticket result = %+v", lt.Result)
	}
}

func TestAsyncHTTPDeployAndTicket(t *testing.T) {
	_, srv := newTestServer(t)

	resp := postJSON(t, srv.URL+"/deploy?async=1&priority=batch", map[string]interface{}{"app": "app1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async deploy status = %d", resp.StatusCode)
	}
	var body struct {
		Ticket Ticket `json:"ticket"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Ticket.ID == "" || body.Ticket.Priority != PriorityBatch || body.Ticket.State != TicketQueued {
		t.Fatalf("ticket = %+v", body.Ticket)
	}
	if !body.Ticket.MemQuotaDefaulted {
		t.Fatalf("zero quota not defaulted: %+v", body.Ticket)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/deployments/" + body.Ticket.ID)
		if err != nil {
			t.Fatal(err)
		}
		var tk Ticket
		err = json.NewDecoder(r.Body).Decode(&tk)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tk.State == TicketSucceeded {
			if tk.Result == nil || tk.Result.App != "app1" {
				t.Fatalf("result = %+v", tk.Result)
			}
			break
		}
		if tk.State == TicketFailed {
			t.Fatalf("ticket failed: %s", tk.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket stuck in %s", tk.State)
		}
		time.Sleep(time.Millisecond)
	}

	// The ticket shows up in the listing and the listing validates input.
	r, err := http.Get(srv.URL + "/deployments?state=succeeded")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list struct {
		Deployments []Ticket `json:"deployments"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Deployments) != 1 || list.Deployments[0].ID != body.Ticket.ID {
		t.Fatalf("deployments = %+v", list.Deployments)
	}
}

func TestAsyncHTTPValidation(t *testing.T) {
	_, srv := newTestServer(t)

	for path, want := range map[string]int{
		"/deploy?async=1":                http.StatusNotFound,   // unknown app fails fast, pre-enqueue
		"/deploy?async=1&priority=wrong": http.StatusBadRequest, // bad class
		"/deploy?async=maybe":            http.StatusBadRequest, // bad bool
	} {
		resp := postJSON(t, srv.URL+path, map[string]interface{}{"app": "no-such-app"})
		if resp.StatusCode != want {
			t.Errorf("POST %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
	for path, want := range map[string]int{
		"/deployments?state=bogus": http.StatusBadRequest,
		"/deployments?max=-1":      http.StatusBadRequest,
		"/deployments/d-999999":    http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestQueueStatsHTTP(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/queue")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st QueueStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CapacityPerClass != defaultQueueDepth || st.Workers != defaultQueueWorkers {
		t.Fatalf("queue stats = %+v", st)
	}
}

// TestAsyncTicketRetention: finished tickets are retained up to
// maxRetainedTickets, oldest-finished evicted first; a ticket still in
// flight is never evicted however many finish around it; List is newest
// admission first. The test plays the worker itself (the real ones are
// stopped), so which tickets are in flight is exact.
func TestAsyncTicketRetention(t *testing.T) {
	ct := NewController(testCluster())
	p := ct.Async()
	p.Close()
	enqueue := func(pr Priority) Ticket {
		tk, err := p.Enqueue(context.Background(), "no-such-app", 0, true, pr)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	held := enqueue(PriorityBatch) // nobody drains the batch class: stays queued
	var first, last Ticket
	for i := 0; i < maxRetainedTickets+50; i++ {
		last = enqueue(PriorityLatency)
		if i == 0 {
			first = last
		}
		p.run(<-p.latCh)
	}
	if _, ok := p.Get(first.ID); ok {
		t.Fatalf("ticket %s survived %d later finishes", first.ID, maxRetainedTickets+49)
	}
	if got, ok := p.Get(held.ID); !ok || got.State != TicketQueued {
		t.Fatalf("in-flight ticket %s evicted or changed: %+v (found %v)", held.ID, got, ok)
	}
	if n := len(p.List(TicketFailed, 0)); n != maxRetainedTickets {
		t.Fatalf("%d finished tickets retained, want the cap %d", n, maxRetainedTickets)
	}
	if st := p.Stats(); st.TicketsRetained != maxRetainedTickets+1 {
		t.Fatalf("tickets retained = %d, want the cap plus the one in flight", st.TicketsRetained)
	}
	all := p.List("", 3)
	if len(all) != 3 || all[0].ID != last.ID || all[1].ID >= all[0].ID || all[2].ID >= all[1].ID {
		t.Fatalf("List is not newest first: %+v", all)
	}
	if queued := p.List(TicketQueued, 0); len(queued) != 1 || queued[0].ID != held.ID {
		t.Fatalf("queued tickets = %+v, want only %s", queued, held.ID)
	}
}
