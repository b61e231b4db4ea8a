// Package ring is the repo's one bounded history: the audit log, the trace
// ring and the finished-ticket table all keep "the most recent N" in it.
package ring

// Ring holds the most recent limit values pushed into it: it grows by
// append until full, then overwrites the oldest in place, so one backing
// array serves its whole life. Not synchronized; its owner's lock guards it.
type Ring[T any] struct {
	buf     []T
	next    int // the oldest slot once full; zero while growing
	limit   int
	evicted uint64
}

// New returns an empty ring retaining up to limit values (limit >= 1).
func New[T any](limit int) *Ring[T] { return &Ring[T]{limit: limit} }

// Push appends v. Once the ring is full the oldest value makes room and is
// returned, so an owner that also indexes the values can drop it there too.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return old, false
	}
	old = r.buf[r.next]
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.limit
	r.evicted++
	return old, true
}

// Cap is the most values the ring will retain, Evicted how many it has
// overwritten since it was created.
func (r *Ring[T]) Cap() int        { return r.limit }
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// Last returns the n newest values, oldest first — all that are retained
// when n <= 0 or fewer are.
func (r *Ring[T]) Last(n int) []T {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	for i := len(r.buf) - n; i < len(r.buf); i++ {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}
