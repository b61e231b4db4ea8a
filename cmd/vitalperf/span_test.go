package main

import (
	"testing"
	"time"
)

// TestSelfTime: a span's self time is its duration minus what its direct
// children cover inside it — overlaps once, overhang not at all, and
// grandchildren only through their parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cycle", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 200},
		{ID: 3, Parent: 1, Name: "await", Start: 250, End: 600},
		{ID: 4, Parent: 3, Name: "poll", Start: 250, End: 350},
		{ID: 5, Parent: 3, Name: "poll", Start: 500, End: 600},
		// Derived from ticket timestamps: overlaps the polls, starts
		// before the await and is clipped to it.
		{ID: 6, Parent: 3, Name: "deploy", Start: 200, End: 400},
		{ID: 7, Parent: 1, Name: "execute", Start: 600, End: 900},
		{ID: 8, Parent: 1, Name: "undeploy", Start: 900, End: 1100}, // sticks out of the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 50,  // 1000 − (200 + 350 + 300 + 100 inside)
		2: 200, // no children
		3: 100, // 350 − [250,400] − [500,600]
		4: 100, 5: 100, 6: 200, 7: 300, 8: 200,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	by := selfByName(spans)
	if len(by["poll"]) != 2 || by["cycle"][0] != 0.05 {
		t.Errorf("selfByName: poll %v cycle %v", by["poll"], by["cycle"])
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	id := r.open("cycle", 0, 1, time.Now())
	r.close(id, time.Now())
	if id != 0 || len(mergeSpans(r)) != 0 {
		t.Errorf("nil recorder recorded: id %d", id)
	}
}
