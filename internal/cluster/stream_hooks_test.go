package cluster

import (
	"context"
	"testing"

	"dimatch/internal/metrics"
)

func newHooksCluster(t *testing.T, stations []uint32) *Cluster {
	t.Helper()
	c, err := New(Options{}, 3, emptyMembers(stations)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

func TestAliveStationIDs(t *testing.T) {
	c := newHooksCluster(t, []uint32{5, 1, 3})
	got := c.AliveStationIDs()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("AliveStationIDs() = %v, want ascending {1,3,5}", got)
	}
	// The slice must be a copy: mutating it cannot corrupt the epoch.
	got[0] = 99
	if again := c.AliveStationIDs(); again[0] != 1 {
		t.Fatal("AliveStationIDs aliased the epoch's member slice")
	}
	if err := c.KillStation(3); err != nil {
		t.Fatal(err)
	}
	if got := c.AliveStationIDs(); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("after kill, AliveStationIDs() = %v, want {1,5}", got)
	}
}

func TestRegisterStreamStatsMergesIntoStats(t *testing.T) {
	c := newHooksCluster(t, []uint32{1, 2})
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream != nil {
		t.Fatal("Stats.Stream must be nil with no pipeline registered")
	}

	cancelA := c.RegisterStreamStats(func() *metrics.StreamStats {
		return &metrics.StreamStats{Accepted: 5, Flushes: 2}
	})
	cancelB := c.RegisterStreamStats(func() *metrics.StreamStats {
		return &metrics.StreamStats{Accepted: 3, Flushes: 1}
	})
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream == nil || st.Stream.Accepted != 8 || st.Stream.Flushes != 3 {
		t.Fatalf("Stats.Stream = %+v, want summed Accepted 8, Flushes 3", st.Stream)
	}

	// A provider returning nil contributes nothing but must not wipe the
	// others.
	cancelNil := c.RegisterStreamStats(func() *metrics.StreamStats { return nil })
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream == nil || st.Stream.Accepted != 8 {
		t.Fatalf("nil provider corrupted the merge: %+v", st.Stream)
	}

	cancelA()
	cancelB()
	cancelB() // idempotent
	cancelNil()
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream != nil {
		t.Fatal("Stats.Stream must return to nil after every pipeline unregisters")
	}
}
