package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"vital/internal/bitstream"
	"vital/internal/memvirt"
	"vital/internal/ring"
	"vital/internal/telemetry"
)

// EventKind classifies controller events.
type EventKind string

// Event kinds.
const (
	EventDeploy   EventKind = "deploy"
	EventUndeploy EventKind = "undeploy"
	EventRelocate EventKind = "relocate"
	EventDrain    EventKind = "drain"
	// EventCompact records a CompactApp consolidation: a spanning
	// application pulled onto a single board; App carries the app name.
	EventCompact EventKind = "compact"
	// EventDefrag records one incremental DefragStep pass and how many
	// blocks it relocated.
	EventDefrag EventKind = "defrag"
	// EventFault records a board health transition (InjectFault).
	EventFault EventKind = "fault"
	// EventEvacuate records the outcome of moving one application off a
	// failed board — either a successful re-placement or the
	// capacity-insufficient undeploy fallback.
	EventEvacuate EventKind = "evacuate"
	// EventAlert records an alert-rule transition (firing or resolved);
	// App carries the rule name.
	EventAlert EventKind = "alert"
)

// allEventKinds enumerates every kind for the vital_events_total series.
var allEventKinds = []EventKind{
	EventDeploy, EventUndeploy, EventRelocate, EventDrain, EventCompact, EventDefrag, EventFault, EventEvacuate, EventAlert,
}

// Event is one entry of the controller's audit log: cloud operators need
// to reconstruct who held which physical blocks when. Seq is a strictly
// increasing per-log sequence number; SSE clients use it as the event id
// and tests use it to assert loss/duplication freedom.
type Event struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   EventKind `json:"kind"`
	App    string    `json:"app"`
	Detail string    `json:"detail"`
}

// eventLog is a bounded in-memory audit log: the most recent events in a
// ring, per-kind totals that outlive eviction, and live subscribers.
type eventLog struct {
	mu   sync.Mutex
	ring *ring.Ring[Event]
	// counts holds per-kind totals for the metrics endpoint.
	counts map[EventKind]uint64
	// seq is the next event's sequence number (first event gets 1).
	seq uint64
	// subs are live streaming subscribers; add broadcasts to each with a
	// non-blocking send, so a stalled client can never stall the
	// controller — it just starts losing events once its buffer is full.
	subs []*eventSub
}

// eventSub is one live event-stream subscription.
type eventSub struct {
	ch chan Event
	// dropped counts events lost to a full buffer (atomic: written under
	// l.mu, read by the streaming handler without it).
	dropped atomic.Uint64
}

// subscribe registers a subscriber with the given buffer capacity. Events
// appended after subscribe returns are delivered in order; the caller must
// unsubscribe when done.
func (l *eventLog) subscribe(buf int) *eventSub {
	s := &eventSub{ch: make(chan Event, buf)}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, s)
	return s
}

// unsubscribe removes a subscriber; its channel stops receiving events.
func (l *eventLog) unsubscribe(s *eventSub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, sub := range l.subs {
		if sub == s {
			l.subs = append(l.subs[:i], l.subs[i+1:]...)
			return
		}
	}
}

// subscribers returns the number of live subscriptions (tests use it to
// assert clean disconnects).
func (l *eventLog) subscribers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

const defaultEventLimit = 4096

func newEventLog() *eventLog { return newEventLogWithLimit(defaultEventLimit) }

func newEventLogWithLimit(limit int) *eventLog {
	return &eventLog{ring: ring.New[Event](limit), counts: map[EventKind]uint64{}}
}

func (l *eventLog) add(kind EventKind, app, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[kind]++
	l.seq++
	e := Event{Seq: l.seq, At: time.Now(), Kind: kind, App: app, Detail: detail}
	l.ring.Push(e)
	for _, s := range l.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
		}
	}
}

// Limit returns the maximum number of retained events.
func (l *eventLog) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Cap()
}

// Snapshot returns the most recent events in chronological order (newest
// last), at most max (max <= 0 returns the whole log).
func (l *eventLog) Snapshot(max int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Last(max)
}

// Counts returns per-kind event totals.
func (l *eventLog) Counts() map[EventKind]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[EventKind]uint64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

// Events returns the controller's recent audit log (newest last).
func (ct *Controller) Events(max int) []Event {
	return ct.log.Snapshot(max)
}

// EventLimit returns the audit log's retention capacity — the clamp the
// HTTP API applies to /events?max= queries.
func (ct *Controller) EventLimit() int {
	return ct.log.Limit()
}

// CacheMetrics is the compile cache's counters as exposed by /metrics.
type CacheMetrics struct {
	bitstream.CacheStats
	HitRate float64 `json:"hit_rate"`
}

// Metrics summarizes controller activity for monitoring: one scrape covers
// occupancy, per-board health, compile-cache counters, event totals, and
// the operation latency summaries (p50/p90/p99 from the controller's
// histograms). The controller's Prometheus series are emitted from the same
// snapshot (telemetry.go): the two /metrics formats are one read.
type Metrics struct {
	TotalBlocks int                  `json:"total_blocks"`
	UsedBlocks  int                  `json:"used_blocks"`
	Deployed    int                  `json:"deployed_apps"`
	Events      map[EventKind]uint64 `json:"events"`
	Cache       CacheMetrics         `json:"cache"`
	// Boards is the per-board health report (health, free/used blocks,
	// resident apps).
	Boards []BoardHealthInfo `json:"boards"`
	// Latency maps operation name → histogram summary, in seconds.
	Latency map[string]telemetry.HistogramSummary `json:"latency_seconds"`
	// Placement is the cluster-wide placement-quality report (per-app
	// crossing counts, fragmentation, free-block contiguity).
	Placement ClusterPlacement `json:"placement"`

	// What only the Prometheus rendering shows: the boards' free-run shape,
	// and each live app's monitored I/O, index-aligned with Placement.Apps.
	boards []BoardStat
	apps   []appCounters
}

type appCounters struct {
	mem memvirt.DomainStats
	nic memvirt.VNICStats
}

// Metrics reports occupancy, health, cache and event counters in one
// consistent snapshot: everything derived from controller state is
// assembled under a single ct.mu acquisition (every event-log append also
// happens under ct.mu), so occupancy and event counts cannot tear against
// a concurrent deploy.
func (ct *Controller) Metrics() Metrics {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	cs := ct.Cache.Stats()
	boards := ct.DB.BoardStats()
	m := Metrics{
		TotalBlocks: ct.Cluster.TotalBlocks(),
		UsedBlocks:  ct.DB.UsedBlocks(),
		Deployed:    len(ct.deployed),
		Events:      ct.log.Counts(),
		Cache:       CacheMetrics{CacheStats: cs, HitRate: cs.HitRate()},
		Boards:      ct.healthLocked(boards).Boards,
		Latency: map[string]telemetry.HistogramSummary{
			"deploy":   ct.lat.deploy.Summary(),
			"undeploy": ct.lat.undeploy.Summary(),
			"relocate": ct.lat.relocate.Summary(),
			"drain":    ct.lat.drain.Summary(),
			"evacuate": ct.lat.evacuate.Summary(),
			"defrag":   ct.lat.defrag.Summary(),
		},
		Placement: ct.placementLocked(boards),
		boards:    boards,
	}
	for _, sc := range m.Placement.Apps {
		dep := ct.deployed[sc.App]
		var ac appCounters
		if dep.VNIC != nil {
			ac.nic = dep.VNIC.Stats()
		}
		if d, ok := ct.Cluster.Boards[dep.Primary].Mem.Domain(sc.App); ok {
			ac.mem = d.Stats()
		}
		m.apps = append(m.apps, ac)
	}
	return m
}
