package ring

import (
	"slices"
	"testing"
)

func TestRingOverwritesOldestInPlace(t *testing.T) {
	r := New[int](4)
	for i := 0; i < 3; i++ {
		if _, evicted := r.Push(i); evicted {
			t.Fatalf("push %d evicted while the ring was still growing", i)
		}
	}
	if n := len(r.Last(0)); n != 3 || r.Cap() != 4 || r.Evicted() != 0 {
		t.Fatalf("growing ring: len=%d cap=%d evicted=%d", n, r.Cap(), r.Evicted())
	}
	for i := 3; i < 10; i++ {
		old, evicted := r.Push(i)
		if want := i - 4; evicted != (want >= 0) || (evicted && old != want) {
			t.Fatalf("push %d returned (%d, %v), want the oldest value %d", i, old, evicted, want)
		}
	}
	if r.Evicted() != 6 {
		t.Fatalf("full ring evicted %d, want 6", r.Evicted())
	}
	for _, n := range []int{0, 2, 4, 9} {
		got := r.Last(n)
		want := []int{6, 7, 8, 9}
		if n == 2 {
			want = want[2:]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Last(%d) = %v, want %v (oldest first)", n, got, want)
		}
	}
	if got := New[int](4).Last(3); len(got) != 0 {
		t.Fatalf("empty ring Last = %v", got)
	}
	// A re-slice trim (buf = buf[len-limit:]) would pin the old backing
	// array and regrow a fresh tail forever; the ring reuses one allocation.
	if c := cap(r.buf); c != 4 {
		t.Fatalf("backing array regrew to %d, want 4", c)
	}
}
