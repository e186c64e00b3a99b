package cluster

import (
	"context"
	"errors"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// countingStore is an in-memory store that counts recoveries and closes, and
// can be told to fail its recovery.
type countingStore struct {
	store.Store
	recoverErr       error
	recovers, closes int
}

func newCountingStore() *countingStore { return &countingStore{Store: store.NewMemory()} }

func (s *countingStore) Recover() (store.Image, error) {
	s.recovers++
	if s.recoverErr != nil {
		return store.Image{}, s.recoverErr
	}
	return s.Store.Recover()
}

func (s *countingStore) Close() error {
	s.closes++
	return s.Store.Close()
}

// TestRefusedMemberClosesItsStore: a join refused for a taken id or a closed
// cluster is refused before the store is recovered, and the store is closed.
func TestRefusedMemberClosesItsStore(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, testOptions(), paperScenario())
	taken := newCountingStore()
	if err := c.AddStation(ctx, Member{ID: 0, Store: taken}); !errors.Is(err, ErrStationExists) {
		t.Fatalf("taken id err = %v, want ErrStationExists", err)
	}
	if taken.recovers != 0 || taken.closes != 1 {
		t.Fatalf("taken id: Recover %d, Close %d times, want 0 and 1", taken.recovers, taken.closes)
	}

	// A link member carrying a store is a bad spec: refused, link and store
	// closed.
	center, _ := transport.Pipe(nil, nil)
	spec := newCountingStore()
	if err := c.AddStation(ctx, Member{ID: 9, Link: center, Store: spec}); err == nil {
		t.Fatal("link member with a store joined")
	}
	if spec.recovers != 0 || spec.closes != 1 {
		t.Fatalf("bad spec: Recover %d, Close %d times, want 0 and 1", spec.recovers, spec.closes)
	}
	if err := center.Send(wire.StatsMessage()); err == nil {
		t.Fatal("refused member's link left open")
	}

	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	late := newCountingStore()
	if err := c.AddStation(ctx, Member{ID: 9, Store: late}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("closed cluster err = %v, want ErrClusterClosed", err)
	}
	if late.recovers != 0 || late.closes != 1 {
		t.Fatalf("closed cluster: Recover %d, Close %d times, want 0 and 1", late.recovers, late.closes)
	}
}

// TestFailedNewClosesEveryStore: when one member fails inside New, the
// stores of the members recovered before it — and after it — are closed
// too.
func TestFailedNewClosesEveryStore(t *testing.T) {
	early, broken, later := newCountingStore(), newCountingStore(), newCountingStore()
	broken.recoverErr = errors.New("disk on fire")
	_, err := New(Options{}, 3,
		Member{ID: 3, Store: later},
		Member{ID: 1, Store: early},
		Member{ID: 2, Store: broken},
	)
	if err == nil {
		t.Fatal("New succeeded over a store whose recovery fails")
	}
	if early.recovers != 1 || broken.recovers != 1 || later.recovers != 0 {
		t.Fatalf("recoveries = %d/%d/%d, want 1/1/0 (members wire in id order)", early.recovers, broken.recovers, later.recovers)
	}
	for name, s := range map[string]*countingStore{"earlier": early, "failing": broken, "later": later} {
		if s.closes != 1 {
			t.Fatalf("%s member's store closed %d times, want 1", name, s.closes)
		}
	}

	// A duplicate id is refused before anything is recovered.
	a, b := newCountingStore(), newCountingStore()
	if _, err := New(Options{}, 3, Member{ID: 1, Store: a}, Member{ID: 1, Store: b}); !errors.Is(err, ErrStationExists) {
		t.Fatalf("duplicate ids err = %v, want ErrStationExists", err)
	}
	if a.recovers+b.recovers != 0 || a.closes != 1 || b.closes != 1 {
		t.Fatalf("duplicate ids: %d recoveries, closes %d/%d, want 0 and 1/1", a.recovers+b.recovers, a.closes, b.closes)
	}
}

// TestRegionSkipsForeignLengthIngest: a region applies a station's rule to
// an ingest frame — a foreign-length pattern is skipped and the rest applied —
// instead of failing the whole frame and going dark.
func TestRegionSkipsForeignLengthIngest(t *testing.T) {
	sub, err := New(Options{}, 3, emptyMembers([]uint32{1, 2})...)
	if err != nil {
		t.Fatal(err)
	}
	sub.Start()
	t.Cleanup(func() { _ = sub.Shutdown() })
	center, regionEnd := transport.Pipe(nil, nil)
	done := make(chan error, 1)
	go func() {
		err := ServeRegion(100, sub, regionEnd)
		_ = regionEnd.Close() // a region that dies fails the test, not hangs it
		done <- err
	}()

	got := ingestOverLink(t, center, []core.PersonID{1, 2}, []pattern.Pattern{{1, 2, 3}, {1, 2, 3, 4}})
	if got != 1 {
		t.Fatalf("Residents = %d, want 1 (the length-4 pattern skipped)", got)
	}
	if err := center.Send(wire.StatsMessage().WithRequest(2)); err != nil {
		t.Fatal(err)
	}
	reply, err := center.Recv()
	if err != nil {
		t.Fatalf("region stopped answering after the ingest: %v", err)
	}
	sr, err := wire.DecodeStatsReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Residents != 1 || sr.Length != 3 {
		t.Fatalf("region stats %+v, want 1 resident of length 3", sr)
	}
	if err := center.Send(wire.ShutdownMessage()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeRegion: %v", err)
	}
}

// TestWithTargetFPSizesFilter: a tighter target FP grows an auto-sized WBF
// filter and changes no answer, and a region-delegated search under the same
// option answers like the flat cluster.
func TestWithTargetFPSizesFilter(t *testing.T) {
	ctx := context.Background()
	data := hierData()
	flat, err := newFromData(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	flat.Start()
	t.Cleanup(func() { _ = flat.Shutdown() })
	queries := []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{2010, 2011, 2012}}},
		{ID: 2, Locals: []pattern.Pattern{{9011, 9013, 9015}}},
	}
	def, err := flat.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := flat.Search(ctx, queries, WithRouting(RoutingFull), WithTargetFP(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Cost.FilterBytes <= def.Cost.FilterBytes {
		t.Fatalf("FilterBytes at FP 0.001 = %d, not above the default's %d", tight.Cost.FilterBytes, def.Cost.FilterBytes)
	}
	assertSameResults(t, "target FP 0.001 vs default", queries, def, tight)
	if len(def.PerQuery[1]) == 0 || len(def.PerQuery[2]) == 0 {
		t.Fatal("probe queries found nothing — test data drifted")
	}

	h := buildHierarchy(t, data, 3, 3, Options{})
	delegated, err := h.root.Search(ctx, queries, WithTargetFP(0.001))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "delegated at target FP 0.001", queries, tight, delegated)
}
