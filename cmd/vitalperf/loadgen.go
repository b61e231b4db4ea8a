package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"time"
)

// op is one generated tenant request: who submits which design in which
// priority class, when it is due (open loop only) and how long the
// deployment lives before it is undeployed (open loop only). The program
// under test only ever sees ops; the seed stays in the generator.
type op struct {
	Tenant   int
	Design   int
	Batch    bool
	Arrival  time.Duration // offset from the start of the schedule
	Lifetime time.Duration
}

// schedule is the full generated input of one run, one op list per client
// connection, with the hash that identifies it.
type schedule struct {
	perClient [][]op
	hash      string
}

// batchShare is the share of submissions in the batch class.
const batchShare = 0.20

// zipfS is the skew of the design popularity (design 0 most popular).
const zipfS = 1.4

// hashSchedule fingerprints a schedule: equal seeds must give equal
// hashes and different seeds different ones, which is how a run proves
// its inputs came from -seed and nothing else.
func hashSchedule(workload string, perClient [][]op) string {
	h := sha256.New()
	h.Write([]byte(workload))
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for c, ops := range perClient {
		put(int64(c))
		put(int64(len(ops)))
		for _, o := range ops {
			put(int64(o.Tenant))
			put(int64(o.Design))
			if o.Batch {
				put(1)
			} else {
				put(0)
			}
			put(int64(o.Arrival))
			put(int64(o.Lifetime))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// churnSchedule generates the closed-loop cycle stream of warm_churn:
// each client owns a disjoint half of the tenants (so two cycles never
// race for one instance name), designs are zipf-skewed and one cycle in
// five is batch class. n ops per client; a client that outruns its list
// starts over.
func churnSchedule(seed int64, clients, tenants, designs, n int) schedule {
	per := make([][]op, clients)
	share := tenants / clients
	for c := range per {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(designs-1))
		per[c] = make([]op, n)
		for i := range per[c] {
			per[c][i] = op{
				Tenant: c*share + rng.Intn(share),
				Design: int(zipf.Uint64()),
				Batch:  rng.Float64() < batchShare,
			}
		}
	}
	return schedule{perClient: per, hash: hashSchedule("warm_churn", per)}
}

// sprawlSchedule generates the open-loop session stream of sprawl_open:
// Poisson arrivals at rate sessions/s for span, exponential lifetimes with
// the given mean, capped. Tenants are taken round-robin and each tenant's
// designs in rotation, so an instance name comes up again only after
// tenants × designs arrivals — long after its previous session ended — and
// two live sessions never share a name.
func sprawlSchedule(seed int64, rate float64, span time.Duration, tenants, designs int, meanLife, capLife time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	var ops []op
	at := time.Duration(0)
	for i := 0; ; i++ {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= span {
			break
		}
		life := time.Duration(rng.ExpFloat64() * float64(meanLife))
		if life > capLife {
			life = capLife
		}
		ops = append(ops, op{
			Tenant:   i % tenants,
			Design:   i / tenants % designs,
			Batch:    rng.Float64() < batchShare,
			Arrival:  at,
			Lifetime: life,
		})
	}
	per := [][]op{ops}
	return schedule{perClient: per, hash: hashSchedule("sprawl_open", per)}
}

// orderSchedule generates a seeded visiting order over k items for each
// client, as whole permutations laid end to end: every item is visited
// equally often whatever the seed, so the seed changes the order of the
// work and not its amount. cold_compile uses one permutation of its
// design list, execute_stream a long round-robin over its apps.
func orderSchedule(workload string, seed int64, clients, k, rounds int) schedule {
	per := make([][]op, clients)
	for c := range per {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		for r := 0; r < rounds; r++ {
			for _, d := range rng.Perm(k) {
				per[c] = append(per[c], op{Tenant: c, Design: d})
			}
		}
	}
	return schedule{perClient: per, hash: hashSchedule(workload, per)}
}

// event is one due action of the open-loop generator.
type event struct {
	due time.Time
	seq int // tie-break: equal due times run in the order they were scheduled
	run func(due time.Time)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// openLoop is a single-connection open-loop scheduler: actions are due at
// fixed times whatever the system does, one runs at a time (it is one
// connection), and every action is handed the time it was *due*, not the
// time it got to run. An action that times itself from due therefore
// charges a stall to every request that came due during it — no
// coordinated omission — and time.Since(due) at its first line is how
// late the generator itself ran.
type openLoop struct {
	events eventHeap
	seq    int
}

// at schedules run for due.
func (o *openLoop) at(due time.Time, run func(due time.Time)) {
	o.seq++
	heap.Push(&o.events, event{due: due, seq: o.seq, run: run})
}

// runUntil runs due actions in due order until none is due before the
// deadline, sleeping while the next one is in the future. Actions still
// queued at the deadline stay queued.
func (o *openLoop) runUntil(deadline time.Time) {
	for len(o.events) > 0 {
		next := o.events[0]
		if !next.due.Before(deadline) {
			return
		}
		if wait := time.Until(next.due); wait > 0 {
			time.Sleep(wait)
		}
		heap.Pop(&o.events)
		next.run(next.due)
	}
}

// drain runs every queued action at once, in due order, until none is
// left: how a run ends without waiting out the scripted holds.
func (o *openLoop) drain() {
	for len(o.events) > 0 {
		next := heap.Pop(&o.events).(event)
		next.run(next.due)
	}
}
