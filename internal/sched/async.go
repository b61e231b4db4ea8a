package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vital/internal/ring"
	"vital/internal/telemetry"
)

// The bounded asynchronous deploy pipeline: the backend half of the
// admission tier (DESIGN.md §14). POST /deploy?async=1 enqueues a ticket
// into one of two priority-classed bounded queues instead of holding the
// connection through placement; a fixed worker pool drains them,
// latency-sensitive tickets first. A full queue sheds the request
// immediately (ErrQueueFull → HTTP 429 + Retry-After) — backpressure is
// explicit and early, never unbounded buffering.

// Priority classes a deployment can be admitted under.
type Priority string

// Priority classes: latency-sensitive tickets are always drained before
// batch tickets; batch only runs when the latency queue is empty.
const (
	PriorityLatency Priority = "latency"
	PriorityBatch   Priority = "batch"
)

// allPriorities enumerates the classes (queue construction, metrics labels).
var allPriorities = []Priority{PriorityLatency, PriorityBatch}

// ParsePriority parses a priority-class name; empty selects latency
// (interactive callers are the default tenant).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", string(PriorityLatency):
		return PriorityLatency, nil
	case string(PriorityBatch):
		return PriorityBatch, nil
	default:
		return "", fmt.Errorf("sched: bad priority %q: want latency or batch", s)
	}
}

// TicketState is the lifecycle of an async deployment ticket:
// queued → running → succeeded | failed.
type TicketState string

// Ticket states.
const (
	TicketQueued    TicketState = "queued"
	TicketRunning   TicketState = "running"
	TicketSucceeded TicketState = "succeeded"
	TicketFailed    TicketState = "failed"
)

// allTicketStates enumerates the states (the /deployments ?state= filter).
var allTicketStates = []TicketState{TicketQueued, TicketRunning, TicketSucceeded, TicketFailed}

// DeploySummary is the deployment result the API reports — the body of a
// synchronous POST /deploy response and the Result of a succeeded ticket.
type DeploySummary struct {
	App               string   `json:"app"`
	Blocks            []string `json:"blocks"`
	MultiFPGA         bool     `json:"multi_fpga"`
	ReconfigTimeMs    float64  `json:"reconfig_time_ms"`
	VNICMAC           string   `json:"vnic_mac"`
	MemQuotaBytes     uint64   `json:"mem_quota_bytes"`
	MemQuotaDefaulted bool     `json:"mem_quota_defaulted"`
}

// summarize flattens a deployment into the API's result shape.
func summarize(dep *Deployment, quota uint64, defaulted bool) *DeploySummary {
	blocks := make([]string, len(dep.Blocks))
	for i, b := range dep.Blocks {
		blocks[i] = b.String()
	}
	return &DeploySummary{
		App:               dep.App,
		Blocks:            blocks,
		MultiFPGA:         dep.MultiFPGA,
		ReconfigTimeMs:    float64(dep.ReconfigTime.Microseconds()) / 1000,
		VNICMAC:           dep.VNIC.MAC.String(),
		MemQuotaBytes:     quota,
		MemQuotaDefaulted: defaulted,
	}
}

// Ticket is one admitted async deployment. Snapshots returned by the
// pipeline are defensive copies; Result is set once before the ticket
// reaches a terminal state and is read-only from then on.
type Ticket struct {
	ID                string      `json:"id"`
	App               string      `json:"app"`
	Priority          Priority    `json:"priority"`
	State             TicketState `json:"state"`
	MemQuotaBytes     uint64      `json:"mem_quota_bytes"`
	MemQuotaDefaulted bool        `json:"mem_quota_defaulted"`
	Enqueued          time.Time   `json:"enqueued"`
	Started           *time.Time  `json:"started,omitempty"`
	Finished          *time.Time  `json:"finished,omitempty"`
	// Error carries the deploy failure; Retryable marks capacity
	// exhaustion (ErrNoCapacity), which a client may simply retry later.
	Error     string         `json:"error,omitempty"`
	Retryable bool           `json:"retryable,omitempty"`
	Result    *DeploySummary `json:"result,omitempty"`
	// TraceID names the trace the ticket's spans land in — the submit's
	// trace when the enqueueing request carried one, so the worker's
	// deploy links back to the original gateway submit.
	TraceID string `json:"trace_id,omitempty"`
	// span is the ticket's trace segment: opened at admission, ended by
	// the worker after the deploy. Written before the ticket enters the
	// queue channel, so the worker's reads are ordered by the channel.
	span *telemetry.Span
	// seq is the admission sequence number behind ID; List orders by it.
	seq uint64
}

// ErrQueueFull reports that an async deploy was shed because its priority
// class's queue is at capacity (HTTP 429 + Retry-After).
var ErrQueueFull = errors.New("deploy queue full")

// Async pipeline defaults: per-class queue capacity and drain workers.
const (
	defaultQueueDepth   = 256
	defaultQueueWorkers = 4
	// maxRetainedTickets bounds the finished tickets retained: past it, each
	// ticket that finishes evicts the one that finished longest ago.
	maxRetainedTickets = 8192
)

// AsyncPipeline is the bounded async deploy queue of one controller.
type AsyncPipeline struct {
	// ct, capacity, workers and the telemetry handles are set once at
	// construction; the channels are internally synchronized.
	ct       *Controller
	capacity int
	workers  int
	latCh    chan *Ticket
	batchCh  chan *Ticket
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	nextID   atomic.Uint64
	// Lock-free counters, per class: admitted, shed, and terminal
	// outcomes. Index by priorityIndex.
	enqueued [2]*telemetry.Counter
	shed     [2]*telemetry.Counter
	done     [2][2]*telemetry.Counter // [class][0 ok, 1 error]
	admit    *telemetry.Histogram
	wait     [2]*telemetry.Histogram

	mu sync.Mutex
	// tickets indexes every retained ticket by ID. Those in flight are
	// bounded by the class queues and the worker pool and never evicted; a
	// ticket reaching a terminal state enters finished, whose overwrite of
	// its oldest entry is the only eviction — admission does none.
	tickets  map[string]*Ticket
	finished *ring.Ring[*Ticket]
	// gate is closed while the pipeline is draining; Pause swaps in an
	// open channel so workers block before their next dequeue, Resume
	// closes it again. Operators use this to freeze placement churn
	// during maintenance; the soak harness uses it to prove backpressure.
	gate   chan struct{}
	paused bool
}

// priorityIndex maps a class to its slot in the per-class arrays.
func priorityIndex(p Priority) int {
	if p == PriorityBatch {
		return 1
	}
	return 0
}

// newAsyncPipeline builds and starts the controller's pipeline; depth and
// workers fall back to the defaults when zero.
func newAsyncPipeline(ct *Controller, depth, workers int) *AsyncPipeline {
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	if workers <= 0 {
		workers = defaultQueueWorkers
	}
	p := &AsyncPipeline{
		ct:       ct,
		capacity: depth,
		workers:  workers,
		latCh:    make(chan *Ticket, depth),
		batchCh:  make(chan *Ticket, depth),
		stop:     make(chan struct{}),
		tickets:  map[string]*Ticket{},
		finished: ring.New[*Ticket](maxRetainedTickets),
		gate:     make(chan struct{}),
	}
	close(p.gate) // running (not paused) from the start
	r := ct.Reg
	p.admit = r.Histogram("vital_queue_admission_seconds",
		"Async deploy admission latency: request arrival to ticket issued (or shed).", nil)
	for _, pr := range allPriorities {
		i := priorityIndex(pr)
		lbl := telemetry.L("class", string(pr))
		p.enqueued[i] = r.Counter("vital_queue_enqueued_total", "Async deploys admitted into the queue, by priority class.", lbl)
		p.shed[i] = r.Counter("vital_queue_shed_total", "Async deploys shed because the class queue was at capacity.", lbl)
		p.done[i][0] = r.Counter("vital_queue_deploys_total", "Async deploys completed, by priority class and outcome.", lbl, telemetry.L("outcome", "ok"))
		p.done[i][1] = r.Counter("vital_queue_deploys_total", "Async deploys completed, by priority class and outcome.", lbl, telemetry.L("outcome", "error"))
		p.wait[i] = r.Histogram("vital_queue_wait_seconds", "Time a ticket spent queued before a worker picked it up.", nil, lbl)
	}
	depthDesc := r.GaugeDesc("vital_queue_depth", "Tickets waiting in the class queue.", "class")
	capacity := r.GaugeDesc("vital_queue_capacity", "Per-class queue capacity (tickets beyond it are shed).")
	workerCount := r.GaugeDesc("vital_queue_workers", "Deploy workers draining the queues.")
	r.Collect(func(emit telemetry.Emit) {
		for _, pr := range allPriorities {
			emit(depthDesc, float64(len(p.queue(pr))), string(pr))
		}
		emit(capacity, float64(p.capacity))
		emit(workerCount, float64(p.workers))
	})
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// queue returns the class's channel.
func (p *AsyncPipeline) queue(pr Priority) chan *Ticket {
	if pr == PriorityBatch {
		return p.batchCh
	}
	return p.latCh
}

// Close stops the workers; queued tickets stay queued (and listed) but are
// no longer drained. Intended for tests and benchmarks — in the daemon the
// pipeline is process-lifetime.
func (p *AsyncPipeline) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Pause freezes the workers before their next dequeue; queued tickets stay
// queued and new admissions still succeed until the queues fill.
func (p *AsyncPipeline) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.paused {
		p.paused = true
		p.gate = make(chan struct{})
	}
}

// Resume lets the workers drain again.
func (p *AsyncPipeline) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.paused {
		p.paused = false
		close(p.gate)
	}
}

// Enqueue admits one async deployment: it issues a ticket and places it in
// the class queue, or sheds with ErrQueueFull when the class is at
// capacity. The returned Ticket is a snapshot.
//
// The ticket opens its own trace segment linked under ctx's span (the
// gateway submit, via the instrumented request), so the worker's deploy
// spans share the submit's trace ID even though the HTTP response — and
// its request span — completes long before the worker runs. A shed
// ticket's segment is abandoned unended and never commits.
func (p *AsyncPipeline) Enqueue(ctx context.Context, app string, memQuota uint64, defaulted bool, pr Priority) (Ticket, error) {
	start := time.Now()
	defer p.admit.ObserveSince(start)
	seq := p.nextID.Add(1)
	t := &Ticket{
		ID:                fmt.Sprintf("d-%06d", seq),
		seq:               seq,
		App:               app,
		Priority:          pr,
		State:             TicketQueued,
		MemQuotaBytes:     memQuota,
		MemQuotaDefaulted: defaulted,
		Enqueued:          start,
	}
	t.span = p.ct.Tracer.StartLinked(ctx, "deploy.async",
		telemetry.String("app", app), telemetry.String("class", string(pr)), telemetry.String("ticket", t.ID))
	t.TraceID = t.span.TraceID()
	i := priorityIndex(pr)
	select {
	case p.queue(pr) <- t:
	default:
		p.shed[i].Inc()
		return Ticket{}, fmt.Errorf("sched: %s class at capacity %d: %w", pr, p.capacity, ErrQueueFull)
	}
	p.enqueued[i].Inc()
	p.mu.Lock()
	p.tickets[t.ID] = t
	snap := *t
	p.mu.Unlock()
	return snap, nil
}

// Get returns a snapshot of one ticket.
func (p *AsyncPipeline) Get(id string) (Ticket, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tickets[id]
	if !ok {
		return Ticket{}, false
	}
	return *t, true
}

// List returns ticket snapshots, newest first, optionally filtered by
// state ("" keeps all), at most max (0 = no bound).
func (p *AsyncPipeline) List(state TicketState, max int) []Ticket {
	p.mu.Lock()
	out := make([]Ticket, 0, len(p.tickets))
	for _, t := range p.tickets {
		if state == "" || t.State == state {
			out = append(out, *t)
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// QueueStats is the pipeline snapshot GET /queue reports.
type QueueStats struct {
	CapacityPerClass int                                     `json:"capacity_per_class"`
	Workers          int                                     `json:"workers"`
	Paused           bool                                    `json:"paused"`
	Depth            map[Priority]int                        `json:"depth"`
	Enqueued         map[Priority]uint64                     `json:"enqueued"`
	Shed             map[Priority]uint64                     `json:"shed"`
	Completed        map[Priority]uint64                     `json:"completed"`
	Failed           map[Priority]uint64                     `json:"failed"`
	WaitSeconds      map[Priority]telemetry.HistogramSummary `json:"wait_seconds"`
	AdmissionSeconds telemetry.HistogramSummary              `json:"admission_seconds"`
	TicketsRetained  int                                     `json:"tickets_retained"`
}

// Stats snapshots the pipeline.
func (p *AsyncPipeline) Stats() QueueStats {
	st := QueueStats{
		CapacityPerClass: p.capacity,
		Workers:          p.workers,
		Depth:            map[Priority]int{},
		Enqueued:         map[Priority]uint64{},
		Shed:             map[Priority]uint64{},
		Completed:        map[Priority]uint64{},
		Failed:           map[Priority]uint64{},
		WaitSeconds:      map[Priority]telemetry.HistogramSummary{},
		AdmissionSeconds: p.admit.Summary(),
	}
	for _, pr := range allPriorities {
		i := priorityIndex(pr)
		st.Depth[pr] = len(p.queue(pr))
		st.Enqueued[pr] = p.enqueued[i].Value()
		st.Shed[pr] = p.shed[i].Value()
		st.Completed[pr] = p.done[i][0].Value()
		st.Failed[pr] = p.done[i][1].Value()
		st.WaitSeconds[pr] = p.wait[i].Summary()
	}
	p.mu.Lock()
	st.Paused = p.paused
	st.TicketsRetained = len(p.tickets)
	p.mu.Unlock()
	return st
}

// saturation is the alert-rule signal: the fuller of the two class queues,
// as a fraction of capacity.
func (p *AsyncPipeline) saturation() float64 {
	f := float64(len(p.latCh)) / float64(p.capacity)
	if b := float64(len(p.batchCh)) / float64(p.capacity); b > f {
		f = b
	}
	return f
}

// worker drains the queues until Close: latency tickets always first,
// batch only when the latency queue is momentarily empty.
func (p *AsyncPipeline) worker() {
	defer p.wg.Done()
	for {
		// Respect Pause before every dequeue (the gate channel is closed
		// while running, so this select is free in steady state).
		p.mu.Lock()
		gate := p.gate
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-gate:
		}
		var t *Ticket
		select {
		case t = <-p.latCh:
		default:
			select {
			case <-p.stop:
				return
			case t = <-p.latCh:
			case t = <-p.batchCh:
			}
		}
		p.run(t)
	}
}

// run executes one ticket through the synchronous deploy path and records
// its terminal state.
func (p *AsyncPipeline) run(t *Ticket) {
	started := time.Now()
	i := priorityIndex(t.Priority)
	p.wait[i].ObserveExemplar(started.Sub(t.Enqueued).Seconds(), t.TraceID)
	p.mu.Lock()
	t.State = TicketRunning
	t.Started = &started
	p.mu.Unlock()
	// queue.wait backdates to the enqueue instant, so the trace shows the
	// ticket's time in the queue as a span rather than a gap.
	wsp := t.span.ChildAt("queue.wait", t.Enqueued, telemetry.String("class", string(t.Priority)))
	wsp.End()
	dep, err := p.ct.DeployCtx(telemetry.ContextWithSpan(context.Background(), t.span), t.App, t.MemQuotaBytes)
	finished := time.Now()
	p.mu.Lock()
	t.Finished = &finished
	if err != nil {
		t.State = TicketFailed
		t.Error = err.Error()
		t.Retryable = errors.Is(err, ErrNoCapacity)
	} else {
		t.State = TicketSucceeded
		t.Result = summarize(dep, t.MemQuotaBytes, t.MemQuotaDefaulted)
	}
	if old, evicted := p.finished.Push(t); evicted {
		delete(p.tickets, old.ID)
	}
	p.mu.Unlock()
	finishSpan(t.span, err)
	if err != nil {
		p.done[i][1].Inc()
	} else {
		p.done[i][0].Inc()
	}
}

// Async returns the controller's bounded async deploy pipeline.
func (ct *Controller) Async() *AsyncPipeline { return ct.async }
