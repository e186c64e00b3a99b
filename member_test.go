package dimatch

import (
	"context"
	"errors"
	"testing"
	"time"

	"dimatch/internal/store"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// countingStore is an in-memory store that counts recoveries and closes, and
// can be told to fail its recovery.
type countingStore struct {
	Store
	recoverErr       error
	recovers, closes int
}

func newCountingStore() *countingStore { return &countingStore{Store: store.NewMemory()} }

// foreignStore is a counting store that recovers one resident of length 4.
func foreignStore(t *testing.T) *countingStore {
	t.Helper()
	s := newCountingStore()
	if err := s.AppendCells(store.CellBatch{Op: store.OpIngest, Persons: []PersonID{5}, Locals: [][]int32{{1, 2, 3, 4}}}); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *countingStore) RecoverCells() (store.CellImage, error) {
	s.recovers++
	if s.recoverErr != nil {
		return store.CellImage{}, s.recoverErr
	}
	return s.Store.RecoverCells()
}

func (s *countingStore) Close() error {
	s.closes++
	return s.Store.Close()
}

// appendFailStore is an in-memory store whose every append fails.
type appendFailStore struct {
	Store
	err error
}

func (s *appendFailStore) AppendCells(store.CellBatch) error { return s.err }

// TestFailedServeFailsPendingExchanges: a station whose store refuses an
// append stops serving, and its link closes with it. The Ingest that hit it
// returns an error instead of waiting for a reply, the next search counts
// the station failed, and Shutdown returns the store's error. A watchdog
// bounds the whole sequence: without the link closing, Ingest waits forever.
func TestFailedServeFailsPendingExchanges(t *testing.T) {
	boom := errors.New("append refused")
	inner := store.NewMemory()
	if err := inner.AppendCells(store.CellBatch{Op: store.OpIngest, Persons: []PersonID{1}, Locals: [][]int32{{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(testOptions(), 3,
		Member{ID: 1, Store: &appendFailStore{Store: inner, err: boom}},
		Member{ID: 2, Patterns: map[PersonID]Pattern{2: {1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	var ingestErr, searchErr, shutdownErr error
	var out *Outcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx := context.Background()
		ingestErr = c.Ingest(ctx, 1, map[PersonID]Pattern{3: {1, 2, 3}})
		out, searchErr = c.Search(ctx, []Query{{ID: 1, Locals: []Pattern{{1, 2, 3}}}})
		shutdownErr = c.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an exchange with the station whose Serve failed was still waiting after 10s")
	}
	if ingestErr == nil {
		t.Fatal("Ingest into the failing station returned nil")
	}
	if searchErr != nil {
		t.Fatalf("search after the failure: %v", searchErr)
	}
	if out.Cost.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d, want 1", out.Cost.StationsFailed)
	}
	if !errors.Is(shutdownErr, boom) {
		t.Fatalf("Shutdown = %v, want the store's error", shutdownErr)
	}
}

// TestRefusedMemberClosesItsStore: a join refused for a taken id or a closed
// cluster is refused before the store is recovered, and the store is closed.
// A durable member whose recovered residents have a foreign length is refused
// by its handshake after its station was built, and its store is closed by
// the time AddStation returns.
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

	foreign := foreignStore(t)
	if err := c.AddStation(ctx, Member{ID: 9, Store: foreign}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("foreign recovered length err = %v, want ErrLengthMismatch", err)
	}
	if foreign.recovers != 1 || foreign.closes != 1 {
		t.Fatalf("foreign recovered length: Recover %d, Close %d times, want 1 and 1", foreign.recovers, foreign.closes)
	}
	if c.Stations() != 3 {
		t.Fatalf("refused member joined: %d stations, want 3", c.Stations())
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
	// A cluster that closes after admit's refusal check starts no station:
	// the one wire builds exits at once and closes its store.
	raced := newCountingStore()
	if _, _, err := c.wire(&Member{ID: 9, Store: raced}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("wiring into a closed cluster err = %v, want ErrClusterClosed", err)
	}
	if raced.recovers != 1 || raced.closes != 1 {
		t.Fatalf("wiring into a closed cluster: Recover %d, Close %d times, want 1 and 1", raced.recovers, raced.closes)
	}
}

// TestFailedNewClosesEveryStore: when one member fails inside NewCluster, the
// stores of the members recovered before it — and after it — are closed
// too, including when the failure is a built station's handshake.
func TestFailedNewClosesEveryStore(t *testing.T) {
	early, broken, later := newCountingStore(), newCountingStore(), newCountingStore()
	broken.recoverErr = errors.New("disk on fire")
	_, err := NewCluster(Options{}, 3,
		Member{ID: 3, Store: later},
		Member{ID: 1, Store: early},
		Member{ID: 2, Store: broken},
	)
	if err == nil {
		t.Fatal("NewCluster succeeded over a store whose recovery fails")
	}
	if early.recovers != 1 || broken.recovers != 1 || later.recovers != 0 {
		t.Fatalf("recoveries = %d/%d/%d, want 1/1/0 (members wire in id order)", early.recovers, broken.recovers, later.recovers)
	}
	for name, s := range map[string]*countingStore{"earlier": early, "failing": broken, "later": later} {
		if s.closes != 1 {
			t.Fatalf("%s member's store closed %d times, want 1", name, s.closes)
		}
	}

	// A store recovering residents of a foreign length fails the handshake
	// after every station was built; each station has closed its store when
	// NewCluster returns.
	foreign, fine := foreignStore(t), newCountingStore()
	if _, err := NewCluster(Options{}, 3, Member{ID: 1, Store: fine}, Member{ID: 2, Store: foreign}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("foreign recovered length err = %v, want ErrLengthMismatch", err)
	}
	if foreign.closes != 1 || fine.closes != 1 {
		t.Fatalf("foreign recovered length: closes %d/%d, want 1/1", foreign.closes, fine.closes)
	}

	// A duplicate id is refused before anything is recovered.
	a, b := newCountingStore(), newCountingStore()
	if _, err := NewCluster(Options{}, 3, Member{ID: 1, Store: a}, Member{ID: 1, Store: b}); !errors.Is(err, ErrStationExists) {
		t.Fatalf("duplicate ids err = %v, want ErrStationExists", err)
	}
	if a.recovers+b.recovers != 0 || a.closes != 1 || b.closes != 1 {
		t.Fatalf("duplicate ids: %d recoveries, closes %d/%d, want 0 and 1/1", a.recovers+b.recovers, a.closes, b.closes)
	}
}

// TestWithTargetFPSizesFilter: a tighter Options.TargetFP grows an
// auto-sized WBF filter and changes no answer.
func TestWithTargetFPSizesFilter(t *testing.T) {
	queries := []Query{
		{ID: 1, Locals: []Pattern{{2010, 2011, 2012}}},
		{ID: 2, Locals: []Pattern{{9011, 9013, 9015}}},
	}
	search := func(fp float64) *Outcome {
		c, err := newFromData(Options{TargetFP: fp}, separatedData())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Shutdown() })
		out, err := c.Search(context.Background(), queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	def, tight := search(0), search(0.001)
	if tight.Cost.FilterBytes <= def.Cost.FilterBytes {
		t.Fatalf("FilterBytes at FP 0.001 = %d, not above the default's %d", tight.Cost.FilterBytes, def.Cost.FilterBytes)
	}
	assertSameResults(t, "target FP 0.001 vs default", queries, def, tight)
	if len(def.PerQuery[1]) == 0 || len(def.PerQuery[2]) == 0 {
		t.Fatal("probe queries found nothing — test data drifted")
	}
}

// separatedData builds 12 well-separated station stores (3 residents each,
// magnitudes clustered per station) keyed by station id 0..11.
func separatedData() map[uint32]map[PersonID]Pattern {
	data := make(map[uint32]map[PersonID]Pattern)
	pid := PersonID(1)
	for s := uint32(0); s < 12; s++ {
		st := make(map[PersonID]Pattern, 3)
		base := int64(s)*1000 + 10
		for j := int64(0); j < 3; j++ {
			st[pid] = Pattern{base + j, base + 2*j + 1, base + 3*j + 2}
			pid++
		}
		data[s] = st
	}
	return data
}

// TestAliveStationIDs: aliveMembers returns the alive members ascending,
// each with its mux, as a copy, and a killed station drops out.
func TestAliveStationIDs(t *testing.T) {
	c, err := NewCluster(Options{}, 3, emptyMembers([]uint32{5, 1, 3})...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	got, muxes := c.aliveMembers()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("aliveMembers() = %v, want ascending {1,3,5}", got)
	}
	if len(muxes) != len(got) {
		t.Fatalf("aliveMembers() returned %d muxes for %d ids", len(muxes), len(got))
	}
	// The slice must be a copy: mutating it cannot corrupt the epoch.
	got[0] = 99
	if again, _ := c.aliveMembers(); again[0] != 1 {
		t.Fatal("aliveMembers aliased the epoch's member slice")
	}
	if err = c.KillStation(3); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.aliveMembers(); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("after kill, aliveMembers() = %v, want {1,5}", got)
	}
}
