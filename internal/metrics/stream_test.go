package metrics

import (
	"reflect"
	"testing"
)

func TestStreamCountersSnapshot(t *testing.T) {
	var c StreamCounters
	c.Submitted.Store(10)
	c.Accepted.Store(7)
	c.Shed.Store(2)
	c.Rejected.Store(1)
	c.Blocked.Store(3)
	c.Flushes.Store(5)
	c.FlushedPatterns.Store(14)
	c.FlushFailures.Store(1)
	c.TTLEvictions.Store(6)
	got := c.Snapshot()
	want := StreamStats{
		Submitted: 10, Accepted: 7, Shed: 2, Rejected: 1, Blocked: 3,
		Flushes: 5, FlushedPatterns: 14, FlushFailures: 1, TTLEvictions: 6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot() = %+v, want %+v", got, want)
	}
	// The snapshot must be a copy: bumping the live counters afterwards
	// must not change it.
	c.Accepted.Add(100)
	if got.Accepted != 7 {
		t.Fatal("snapshot aliased the live counters")
	}
}

func TestMergeStreamStats(t *testing.T) {
	if MergeStreamStats(nil) != nil {
		t.Fatal("merge of nothing must be nil")
	}
	if MergeStreamStats([]*StreamStats{nil, nil}) != nil {
		t.Fatal("merge of only-nil parts must be nil")
	}

	a := &StreamStats{Submitted: 5, Accepted: 5, Flushes: 2, FlushedPatterns: 10}
	b := &StreamStats{
		Submitted: 4, Accepted: 3, Shed: 1, Blocked: 2,
		FlushFailures: 1, TTLEvictions: 2, Flushes: 1, FlushedPatterns: 3,
	}
	out := MergeStreamStats([]*StreamStats{a, nil, b})
	want := StreamStats{
		Submitted: 9, Accepted: 8, Shed: 1, Blocked: 2, Flushes: 3,
		FlushedPatterns: 13, FlushFailures: 1, TTLEvictions: 2,
	}
	if out == nil || *out != want {
		t.Fatalf("MergeStreamStats = %+v, want %+v", out, want)
	}
	// Inputs must be untouched (the merge copies).
	if a.Submitted != 5 || b.Submitted != 4 {
		t.Fatal("merge mutated its inputs")
	}
}
