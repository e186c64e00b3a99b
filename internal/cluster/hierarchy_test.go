package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// hierData builds 12 well-separated station stores (3 residents each,
// magnitudes clustered per station) keyed by station id 0..11 — the same
// data set the flat and hierarchical topologies are built from, so their
// answers are directly comparable.
func hierData() map[uint32]map[core.PersonID]pattern.Pattern {
	data := make(map[uint32]map[core.PersonID]pattern.Pattern)
	pid := core.PersonID(1)
	for s := uint32(0); s < 12; s++ {
		st := make(map[core.PersonID]pattern.Pattern, 3)
		base := int64(s)*1000 + 10
		for j := int64(0); j < 3; j++ {
			st[pid] = pattern.Pattern{base + j, base + 2*j + 1, base + 3*j + 2}
			pid++
		}
		data[s] = st
	}
	return data
}

// hierarchy wires sub-clusters of stations behind region coordinators and a
// root over the coordinators: stations 0-2 behind region 100, 3-5 behind
// 101, and so on. Shutdown order matters — the root's shutdown frame makes
// each ServeRegion return without touching its sub-cluster, which the test
// then shuts down itself.
type hierarchy struct {
	root    *Cluster
	regions []*Cluster
}

func buildHierarchy(t *testing.T, data map[uint32]map[core.PersonID]pattern.Pattern, perRegion int, length int, rootOpts Options) *hierarchy {
	t.Helper()
	var ids []uint32
	for id := range data {
		ids = append(ids, id)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	h := &hierarchy{}
	links := make(map[uint32]transport.Link)
	for start := 0; start < len(ids); start += perRegion {
		end := start + perRegion
		if end > len(ids) {
			end = len(ids)
		}
		sub := make(map[uint32]map[core.PersonID]pattern.Pattern, end-start)
		for _, id := range ids[start:end] {
			sub[id] = data[id]
		}
		rc, err := newFromData(Options{}, sub)
		if err != nil {
			t.Fatal(err)
		}
		rc.Start()
		h.regions = append(h.regions, rc)
		regionID := uint32(100 + start/perRegion)
		rootEnd, regionEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeRegion(regionID, rc, regionEnd) }()
		links[regionID] = rootEnd
	}
	root, err := New(rootOpts, length, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	h.root = root
	t.Cleanup(func() {
		_ = root.Shutdown()
		for _, rc := range h.regions {
			_ = rc.Shutdown()
		}
	})
	return h
}

// emptyHierarchy builds regions with empty stations, for placement-driven
// tests: stationsPerRegion stations per region, ids dense from 0.
func emptyHierarchy(t *testing.T, regions, stationsPerRegion, length int) *hierarchy {
	t.Helper()
	h := &hierarchy{}
	links := make(map[uint32]transport.Link)
	for r := 0; r < regions; r++ {
		var ids []uint32
		for s := 0; s < stationsPerRegion; s++ {
			ids = append(ids, uint32(r*stationsPerRegion+s))
		}
		rc, err := New(Options{}, length, emptyMembers(ids)...)
		if err != nil {
			t.Fatal(err)
		}
		rc.Start()
		h.regions = append(h.regions, rc)
		regionID := uint32(100 + r)
		rootEnd, regionEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeRegion(regionID, rc, regionEnd) }()
		links[regionID] = rootEnd
	}
	root, err := New(Options{}, length, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	h.root = root
	t.Cleanup(func() {
		_ = root.Shutdown()
		for _, rc := range h.regions {
			_ = rc.Shutdown()
		}
	})
	return h
}

// TestRoutedMembershipChurnEquivalence is the churn sweep that also moves
// the membership (run under -race): random ingests, evicts, station adds and
// removes interleave with searches, and after every mutation the
// summary-routed answer must equal the full fan-out answer on the same store.
func TestRoutedMembershipChurnEquivalence(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	stations := []uint32{0, 1, 2, 3}
	nextStation := uint32(4)
	next := core.PersonID(1000)
	type placedAt struct {
		person  core.PersonID
		station uint32
	}
	var live []placedAt

	for step := 0; step < 50; step++ {
		switch op := rng.Intn(10); {
		case op == 0 && len(stations) < 8:
			id := nextStation
			nextStation++
			if err := c.AddStation(ctx, Member{ID: id, Patterns: map[core.PersonID]pattern.Pattern{
				next: {int64(rng.Intn(40)) + 1, int64(rng.Intn(40)), int64(rng.Intn(40))},
			}}); err != nil {
				t.Fatal(err)
			}
			live = append(live, placedAt{person: next, station: id})
			next++
			stations = append(stations, id)
		case op == 1 && len(stations) > 2:
			i := 4 + rng.Intn(len(stations)-4+1)
			if i >= len(stations) {
				break // only remove stations this sweep added
			}
			id := stations[i]
			if err := c.RemoveStation(ctx, id); err != nil {
				t.Fatal(err)
			}
			stations = append(stations[:i], stations[i+1:]...)
			kept := live[:0]
			for _, l := range live {
				if l.station != id {
					kept = append(kept, l)
				}
			}
			live = kept
		case op < 6 || len(live) == 0:
			p := next
			next++
			s := stations[rng.Intn(len(stations))]
			pat := pattern.Pattern{int64(rng.Intn(40)) + 1, int64(rng.Intn(40)), int64(rng.Intn(40))}
			if err := c.Ingest(ctx, s, map[core.PersonID]pattern.Pattern{p: pat}); err != nil {
				t.Fatal(err)
			}
			live = append(live, placedAt{person: p, station: s})
		default:
			i := rng.Intn(len(live))
			if err := c.Evict(ctx, live[i].station, []core.PersonID{live[i].person}); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		queries := []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{int64(rng.Intn(40)) + 1, int64(rng.Intn(40)), int64(rng.Intn(40))}}},
			{ID: 2, Locals: []pattern.Pattern{{50, 60, 70}}},
		}
		full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		summary, err := c.Search(ctx, queries, WithRouting(RoutingSummary))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("summary step %d", step), queries, full, summary)
	}
}

// TestHierarchicalSearchMatchesFlat is the tentpole's multi-tier pin: the
// same data behind region coordinators answers byte-identically to a flat
// cluster, under every routing mode, and the root's plan actually prunes
// whole regions.
func TestHierarchicalSearchMatchesFlat(t *testing.T) {
	data := hierData()
	ctx := context.Background()
	wide := Options{Params: core.Params{Epsilon: 100}}
	for _, in := range []struct {
		name    string
		opts    Options
		queries []core.Query
		prunes  bool
	}{
		{name: "tight", prunes: true, queries: []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{2010, 2011, 2012}}}, // station 2's first resident
			{ID: 2, Locals: []pattern.Pattern{{9011, 9013, 9015}}}, // station 9's second resident
			{ID: 3, Locals: []pattern.Pattern{{1, 2, 3}}},          // matches nothing
		}},
		// Mixed selectivity: at ε = 100 the six-local query's 63 combinations
		// exceed index.MaxProbeValues, so its probe is unselective and must
		// admit every member at every tier — beside a tight query that still
		// prunes. An unselective probe that is dropped instead loses the
		// second query's whole answer.
		{name: "mixed selectivity", opts: wide, queries: []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{2010, 2011, 2012}}},
			{ID: 2, Locals: []pattern.Pattern{
				{1500, 1500, 1500}, {1500, 1500, 1500}, {1500, 1500, 1500},
				{1500, 1500, 1500}, {1500, 1500, 1500}, {1511, 1513, 1515},
			}},
		}},
	} {
		flat, err := newFromData(in.opts, data)
		if err != nil {
			t.Fatal(err)
		}
		flat.Start()
		t.Cleanup(func() { _ = flat.Shutdown() })
		queries := in.queries
		want, err := flat.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		// The root's batching bound travels in the route query: 1 makes every
		// region run its queries as rounds of one.
		h := buildHierarchy(t, data, 3, 3, in.opts)
		for _, batch := range []int{0, 1} {
			for _, mode := range []RoutingMode{RoutingFull, RoutingSummary} {
				label := fmt.Sprintf("%s: hier batch %d %s", in.name, batch, mode)
				got, err := h.root.Search(ctx, queries, WithRouting(mode), WithBatching(batch))
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, label, queries, want, got)
				if got.Cost.TierHops != 2 {
					t.Fatalf("%s TierHops = %d, want 2 (root + regions)", label, got.Cost.TierHops)
				}
				if in.prunes && mode != RoutingFull && got.Cost.StationsPruned == 0 {
					t.Fatalf("%s pruned nothing across 4 regions of well-separated data", label)
				}
			}
		}
		if len(want.PerQuery[1]) == 0 || len(want.PerQuery[2]) == 0 {
			t.Fatalf("%s: probe queries found nothing — test data drifted", in.name)
		}
	}
}

// TestRegionPlansUnknownRoutingOrdinalWithTheScan pins the wire
// compatibility rule for KindRouteQuery's Routing byte: 0 and 1 are summary
// and full, and any other ordinal — 2 once named a digest-tree planner — is
// planned with the scan, so the region's reply is the one Routing 0 gets,
// counters included.
func TestRegionPlansUnknownRoutingOrdinalWithTheScan(t *testing.T) {
	rc := routingTestCluster(t)
	rootEnd, regionEnd := transport.Pipe(nil, nil)
	served := make(chan error, 1)
	go func() { served <- ServeRegion(100, rc, regionEnd) }()
	ask := func(routing uint8) wire.RouteReply {
		t.Helper()
		req, err := wire.EncodeRouteQuery(wire.RouteQuery{
			Queries: []core.Query{{ID: 1, Locals: []pattern.Pattern{{50, 60, 70}}}},
			Routing: routing,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rootEnd.Send(req); err != nil {
			t.Fatal(err)
		}
		reply, err := rootEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rr, err := wire.DecodeRouteReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	ask(uint8(RoutingSummary)) // fills the region's digest cache
	want := ask(uint8(RoutingSummary))
	if want.Pruned != 3 || want.Probes != 4 || len(want.Results) == 0 {
		t.Fatalf("summary-routed reply %+v, want 3 of 4 stations pruned in 4 probes and a result", want)
	}
	for _, ordinal := range []uint8{2, 200} {
		if got := ask(ordinal); !reflect.DeepEqual(got, want) {
			t.Fatalf("Routing %d reply %+v, want the Routing 0 reply %+v", ordinal, got, want)
		}
	}
	if full := ask(uint8(RoutingFull)); full.Pruned != 0 || full.Probes != 0 || !reflect.DeepEqual(full.Results, want.Results) {
		t.Fatalf("full fan-out reply %+v, want nothing pruned or probed and results %+v", full, want.Results)
	}
	if err := rootEnd.Send(wire.Message{Kind: wire.KindShutdown}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeRegion: %v", err)
	}
}

// TestMixedRootSearchMatchesFlat covers the root the single pruning pass
// newly governs: plain stations and a region coordinator side by side.
// Stations 0-2 sit behind region 100, stations 3-11 answer the root directly.
// Routed results equal the flat cluster's full fan-out whether the match
// lives on a plain station, inside the region, or nowhere; the one fallback
// rule applies to the membership as a whole, so a query only a plain station
// can answer prunes the region (one tier traversed) and a query nothing can
// answer visits everyone.
func TestMixedRootSearchMatchesFlat(t *testing.T) {
	data := hierData()
	flat := startCluster(t, Options{}, data)
	sub := make(map[uint32]map[core.PersonID]pattern.Pattern)
	links := make(map[uint32]transport.Link)
	for id, locals := range data {
		if id < 3 {
			sub[id] = locals
			continue
		}
		center, stationEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeStation(id, locals, stationEnd) }()
		links[id] = center
	}
	region := startCluster(t, Options{}, sub)
	rootEnd, regionEnd := transport.Pipe(nil, nil)
	go func() { _ = ServeRegion(100, region, regionEnd) }()
	links[100] = rootEnd
	root, err := New(Options{}, 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Shutdown() })
	ctx := context.Background()

	for _, in := range []struct {
		name         string
		local        pattern.Pattern
		found        bool
		pruned, hops int // under routed modes
	}{
		{name: "plain station only", local: pattern.Pattern{7010, 7011, 7012}, found: true, pruned: 9, hops: 1},
		{name: "inside the region only", local: pattern.Pattern{1011, 1013, 1015}, found: true, pruned: 9 + 2, hops: 2},
		{name: "nothing", local: pattern.Pattern{1, 2, 3}, pruned: 0, hops: 2},
	} {
		queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{in.local}}}
		want, err := flat.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		if (len(want.PerQuery[1]) > 0) != in.found {
			t.Fatalf("%s: flat reference found %v — test data drifted", in.name, want.PerQuery[1])
		}
		for _, mode := range []RoutingMode{RoutingFull, RoutingSummary} {
			label := fmt.Sprintf("%s %s", in.name, mode)
			got, err := root.Search(ctx, queries, WithRouting(mode))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, label, queries, want, got)
			pruned, hops := in.pruned, in.hops
			if mode == RoutingFull {
				pruned, hops = 0, 2
			}
			if got.Cost.StationsPruned != pruned || got.Cost.TierHops != hops {
				t.Fatalf("%s: StationsPruned = %d, TierHops = %d; want %d and %d", label, got.Cost.StationsPruned, got.Cost.TierHops, pruned, hops)
			}
		}
	}
}

// TestRegionKindFixedAtJoin: a region that joins a running root by
// AddStation is a route delegate from its handshake on, the one stats
// exchange the root ever sends it. The root never caches the
// region's digest, so a resident the region's sub-cluster gains directly,
// out of the root's sight, is found by routed searches exactly as by full
// fan-out.
func TestRegionKindFixedAtJoin(t *testing.T) {
	ctx := context.Background()
	links := make(map[uint32]transport.Link)
	for id, locals := range map[uint32]map[core.PersonID]pattern.Pattern{
		1: {7: {5010, 5011, 5012}},
		2: {2: {2010, 2011, 2012}},
	} {
		center, stationEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeStation(id, locals, stationEnd) }()
		links[id] = center
	}
	root, err := New(Options{}, 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Shutdown() })
	region := startCluster(t, Options{}, map[uint32]map[core.PersonID]pattern.Pattern{
		10: {8: {6010, 6011, 6012}},
		11: {9: {8010, 8011, 8012}},
	})
	rootEnd, regionEnd := transport.Pipe(nil, nil)
	go func() { _ = ServeRegion(100, region, regionEnd) }()
	flaky := &flakyStatsLink{Link: rootEnd}
	if err := root.AddStation(ctx, Member{ID: 100, Link: flaky}); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{5010, 5011, 5012}}}}
	if _, err := root.Search(ctx, queries); err != nil {
		t.Fatal(err)
	}
	if err := region.Ingest(ctx, 11, map[core.PersonID]pattern.Pattern{99: {5010, 5011, 5012}}); err != nil {
		t.Fatal(err)
	}
	full, err := root.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Persons(1); !reflect.DeepEqual(got, []core.PersonID{7, 99}) {
		t.Fatalf("full fan-out found %v, want [7 99] — test data drifted", got)
	}
	routed, err := root.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(routed.PerQuery, full.PerQuery) {
		t.Fatalf("routed %v, full fan-out %v", routed.PerQuery, full.PerQuery)
	}
	if n := flaky.stats.Load(); n != 1 {
		t.Fatalf("the region's link carried %d stats frames, want 1 (the join's)", n)
	}
}

// TestHierarchicalClassicForwarding pins the drop-in-station property: the
// BF and naive strategies (and WBF verification) never send a route frame,
// only classic station kinds, and a region forwarding them to its members
// must answer exactly like the flat cluster.
func TestHierarchicalClassicForwarding(t *testing.T) {
	data := hierData()
	flat, err := newFromData(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	flat.Start()
	t.Cleanup(func() { _ = flat.Shutdown() })
	h := buildHierarchy(t, data, 3, 3, Options{})
	ctx := context.Background()

	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{5010, 5011, 5012}}}}
	for _, strat := range []Strategy{StrategyNaive, StrategyBF} {
		want, err := flat.Search(ctx, queries, WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.root.Search(ctx, queries, WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.PerQuery[1]) == 0 {
			t.Fatalf("%v baseline found nothing", strat)
		}
		if strat == StrategyBF {
			// BF results carry no weights; their Denominator is the fan-out
			// peer count, which is 4 regions here vs 12 flat stations — a
			// presentation difference, not a recall one. Compare the ranked
			// persons and their reporting-station counts instead.
			w, g := want.PerQuery[1], got.PerQuery[1]
			if len(w) != len(g) {
				t.Fatalf("forwarded BF: %d results, want %d", len(g), len(w))
			}
			for i := range w {
				if w[i].Person != g[i].Person || w[i].Stations != g[i].Stations {
					t.Fatalf("forwarded BF result %d: %+v, want %+v", i, g[i], w[i])
				}
			}
			continue
		}
		assertSameResults(t, fmt.Sprintf("forwarded %v", strat), queries, want, got)
	}

	// Verification pulls raw patterns (KindDump) through the regions.
	verified, err := h.root.Search(ctx, queries, WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(verified.PerQuery[1]) == 0 || verified.PerQuery[1][0].Score() != 1.0 {
		t.Fatalf("verified hierarchical search lost the match: %v", verified.PerQuery[1])
	}

	// What the region forwards is the one raw-pattern pull: a region over a
	// tapped member link sends it exactly one KindDump for the naive
	// shipment and one more for the verification fetch (a single-member root
	// plans nothing, so no upward-digest pull adds to the count).
	center, stationEnd := transport.Pipe(nil, nil)
	go func() { _ = ServeStation(0, data[0], stationEnd) }()
	tap := &kindTap{Link: center, sent: make(map[wire.Kind]int)}
	tapped, err := New(Options{}, 3, linkMembers(map[uint32]transport.Link{0: tap})...)
	if err != nil {
		t.Fatal(err)
	}
	rootEnd, regionEnd := transport.Pipe(nil, nil)
	go func() { _ = ServeRegion(100, tapped, regionEnd) }()
	root, err := New(Options{}, 3, linkMembers(map[uint32]transport.Link{100: rootEnd})...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = root.Shutdown()
		_ = tapped.Shutdown()
	})
	queries = []core.Query{{ID: 1, Locals: []pattern.Pattern{{10, 11, 12}}}}
	for i, opts := range [][]SearchOption{{WithStrategy(StrategyNaive)}, {WithVerify(true)}} {
		out, err := root.Search(ctx, queries, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Persons(1); len(got) == 0 || got[0] != 1 {
			t.Fatalf("%v through the tapped region: persons = %v, want 1 first", out.Strategy, got)
		}
		if got := tap.count(wire.KindDump); got != i+1 {
			t.Fatalf("after the %v search the region had forwarded %d KindDump frames, want %d", out.Strategy, got, i+1)
		}
	}
}

// kindTap is a center-side link counting the frames sent down it by kind.
type kindTap struct {
	transport.Link
	mu   sync.Mutex
	sent map[wire.Kind]int
}

func (l *kindTap) Send(m wire.Message) error {
	l.mu.Lock()
	l.sent[m.Kind]++
	l.mu.Unlock()
	return l.Link.Send(m)
}

func (l *kindTap) count(k wire.Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent[k]
}

// TestHierarchicalPlacementAndRegionKill is the chaos pin: persons placed at
// the root with R=2 land on two distinct regions; killing one region
// coordinator mid-search costs availability of nothing — the searches in
// flight across the kill succeed, every queried person is still found at
// full score through its surviving replica, and the routed answer
// stays equal to full fan-out's. The dead region is billed as failed, never
// silently skipped, and the root's heal leaves Rebalance nothing to do.
func TestHierarchicalPlacementAndRegionKill(t *testing.T) {
	h := emptyHierarchy(t, 4, 2, 3)
	ctx := context.Background()

	patterns := make(map[core.PersonID]pattern.Pattern)
	for p := core.PersonID(1); p <= 20; p++ {
		patterns[p] = pattern.Pattern{int64(p) * 10, int64(p), int64(p) * 3}
	}
	if _, err := h.root.Place(ctx, patterns, WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	probe := func(p core.PersonID) []core.Query {
		return []core.Query{{ID: core.QueryID(p), Locals: []pattern.Pattern{patterns[p]}}}
	}
	// found searches for one person by full fan-out and summary-routed: full
	// fan-out must return the person at full score and the routed answer
	// must equal it. It reports whether either search billed a failed
	// region.
	found := func(phase string, p core.PersonID) (sawFailure bool) {
		t.Helper()
		full, err := h.root.Search(ctx, probe(p), WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		res := full.PerQuery[core.QueryID(p)]
		if len(res) == 0 || res[0].Person != p || res[0].Score() != 1.0 {
			t.Fatalf("person %d not found at full score %s: %v", p, phase, res)
		}
		routed, err := h.root.Search(ctx, probe(p))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "routed vs full fan-out "+phase, probe(p), full, routed)
		return routed.Cost.StationsFailed > 0 || full.Cost.StationsFailed > 0
	}
	for _, p := range []core.PersonID{3, 11, 19} {
		found("before the kill", p)
	}

	// A background searcher keeps routed searches in flight while one
	// region coordinator is killed: its link closes, ServeRegion exits.
	regionIDs := h.root.currentEpoch().ids
	func() {
		stop, searched, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		defer func() {
			close(stop)
			<-done
		}()
		go func() {
			defer close(done)
			for {
				if _, err := h.root.Search(ctx, probe(3)); err != nil {
					t.Errorf("search across the region kill: %v", err)
					return
				}
				select {
				case searched <- struct{}{}:
				case <-stop:
					return
				}
			}
		}()
		awaitSearch := func() {
			t.Helper()
			select {
			case <-searched:
			case <-done:
				t.FailNow() // the searcher reported why it gave up
			}
		}
		awaitSearch()
		if err := h.root.KillStation(regionIDs[1]); err != nil {
			t.Fatal(err)
		}
		// Two completions after the kill returned: the second search started
		// after it, whatever the first overlapped.
		awaitSearch()
		awaitSearch()
	}()

	sawFailure := false
	for p := core.PersonID(1); p <= 20; p++ {
		if found("after the region kill", p) {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("no search billed the dead region as failed")
	}

	rep, err := h.root.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 0 || rep.Lost != 0 {
		t.Fatalf("post-kill Rebalance = %+v, want nothing to copy and nothing lost: the region heal was incomplete", rep)
	}
}

// TestHierarchicalIngestEvictThroughRoot pins the mutation path one tier up:
// the root addresses a region like a station, the region re-places
// internally, and routed searches observe the mutation immediately — the
// root's cached region digest is delta-updated or invalidated exactly like
// a station's.
func TestHierarchicalIngestEvictThroughRoot(t *testing.T) {
	h := emptyHierarchy(t, 3, 2, 3)
	ctx := context.Background()
	region := h.root.currentEpoch().ids[0]

	if err := h.root.Ingest(ctx, region, map[core.PersonID]pattern.Pattern{42: {7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{7, 8, 9}}}}
	for _, mode := range []RoutingMode{RoutingSummary, RoutingFull} {
		out, err := h.root.Search(ctx, queries, WithRouting(mode))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.PerQuery[1]) != 1 || out.PerQuery[1][0].Person != 42 {
			t.Fatalf("%v: ingested person not found through hierarchy: %v", mode, out.PerQuery[1])
		}
	}
	if err := h.root.Evict(ctx, region, []core.PersonID{42}); err != nil {
		t.Fatal(err)
	}
	out, err := h.root.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 0 {
		t.Fatalf("evicted person still retrieved through hierarchy: %v", out.PerQuery[1])
	}
}

// TestHierarchicalChurnEquivalence (run under -race) sweeps root-level
// ingests and evicts across regions while comparing summary routing
// against full fan-out on the hierarchical topology itself.
func TestHierarchicalChurnEquivalence(t *testing.T) {
	h := emptyHierarchy(t, 3, 2, 3)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	regionIDs := append([]uint32(nil), h.root.currentEpoch().ids...)
	next := core.PersonID(500)
	type placedAt struct {
		person core.PersonID
		region uint32
	}
	var live []placedAt

	for step := 0; step < 25; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			p := next
			next++
			r := regionIDs[rng.Intn(len(regionIDs))]
			pat := pattern.Pattern{int64(rng.Intn(40)) + 1, int64(rng.Intn(40)), int64(rng.Intn(40))}
			if err := h.root.Ingest(ctx, r, map[core.PersonID]pattern.Pattern{p: pat}); err != nil {
				t.Fatal(err)
			}
			live = append(live, placedAt{person: p, region: r})
		} else {
			i := rng.Intn(len(live))
			if err := h.root.Evict(ctx, live[i].region, []core.PersonID{live[i].person}); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		queries := []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{int64(rng.Intn(40)) + 1, int64(rng.Intn(40)), int64(rng.Intn(40))}}},
		}
		full, err := h.root.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.root.Search(ctx, queries, WithRouting(RoutingSummary))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("summary step %d", step), queries, full, got)
	}
}

// TestTwoTierPlanningSublinearAt1024 pins the scaling claim the tier split
// exists for, at the size it is stated in: 1 024 stations behind 32 region
// coordinators answer byte-identically to a flat full fan-out while the two
// tiers together — the same flat scan at each — evaluate at most 0.25·N
// digest probes per query (one flat scan is linear in N by construction) and
// no coordinator holds as much routing state as the flat one. Residents per
// station are kept small — the claim is about N, not store size. Everything
// asserted is counted, not timed, and repeats exactly from run to run.
func TestTwoTierPlanningSublinearAt1024(t *testing.T) {
	const (
		stations  = 1024
		perRegion = 32
		residents = 32
		length    = 8
		nQueries  = 4
	)
	// Values up to 1e6 against ε = 1 bands keep single-target probes
	// selective at both tiers. Params are pinned, not auto-sized, so the
	// root's route query ships the exact values the flat reference uses.
	opts := Options{
		Params:   core.Params{Bits: 1 << 18, Hashes: 5, Samples: 8, Epsilon: 1, Seed: 1, PositionSalted: true},
		MinScore: 0.9,
	}
	rng := rand.New(rand.NewSource(1))
	data := make(map[uint32]map[core.PersonID]pattern.Pattern, stations)
	next := core.PersonID(1)
	for s := uint32(0); s < stations; s++ {
		st := make(map[core.PersonID]pattern.Pattern, residents)
		for r := 0; r < residents; r++ {
			pat := make(pattern.Pattern, length)
			for i := range pat {
				pat[i] = 1 + rng.Int63n(1_000_000)
			}
			st[next] = pat
			next++
		}
		data[s] = st
	}
	// Single-target queries spread evenly over the station range, and so
	// over the regions.
	var queries []core.Query
	for i := 0; i < nQueries; i++ {
		station := uint32(i * stations / nQueries)
		target := core.PersonID(int(station)*residents + 1)
		queries = append(queries, core.Query{ID: core.QueryID(i + 1), Locals: []pattern.Pattern{data[station][target]}})
	}
	ctx := context.Background()
	// steady searches twice: the first fills every tier's digest cache, the
	// second is the steady-state plan whose probes are counted.
	steady := func(c *Cluster, mode RoutingMode) *Outcome {
		t.Helper()
		var out *Outcome
		for i := 0; i < 2; i++ {
			var err error
			if out, err = c.Search(ctx, queries, WithRouting(mode)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	probesPerQuery := func(out *Outcome) float64 { return float64(out.Cost.SubtreeProbes) / nQueries }

	flat, err := newFromData(opts, data)
	if err != nil {
		t.Fatal(err)
	}
	flat.Start()
	t.Cleanup(func() { _ = flat.Shutdown() })
	want := steady(flat, RoutingFull)
	for _, q := range queries {
		if len(want.PerQuery[q.ID]) == 0 {
			t.Fatalf("query %d found nothing on the flat reference", q.ID)
		}
	}
	flatSummary := steady(flat, RoutingSummary)
	assertSameResults(t, "flat summary", queries, want, flatSummary)
	flatState := flat.RoutingState().TotalBytes()
	scan := probesPerQuery(flatSummary)
	t.Logf("flat, %d stations: %.1f probes/query, %d B state", stations, scan, flatState)

	h := buildHierarchy(t, data, perRegion, length, opts)
	got := steady(h.root, RoutingSummary)
	assertSameResults(t, "two-tier", queries, want, got)
	if got.Cost.TierHops != 2 {
		t.Fatalf("two-tier search TierHops = %d, want 2", got.Cost.TierHops)
	}
	if again := steady(h.root, RoutingSummary); again.Cost.SubtreeProbes != got.Cost.SubtreeProbes {
		t.Fatalf("two-tier SubtreeProbes = %d, then %d: planning cost must repeat exactly", got.Cost.SubtreeProbes, again.Cost.SubtreeProbes)
	}
	hier := probesPerQuery(got)
	if hier > 0.25*stations {
		t.Fatalf("two-tier planning evaluated %.1f probes/query, want <= %.0f (0.25·N)", hier, 0.25*stations)
	}
	if hier >= scan {
		t.Fatalf("two-tier planning evaluated %.1f probes/query, flat scan %.1f", hier, scan)
	}
	var maxState uint64
	for _, c := range append([]*Cluster{h.root}, h.regions...) {
		b := c.RoutingState().TotalBytes()
		if b >= flatState {
			t.Fatalf("a two-tier coordinator holds %d B of routing state, flat coordinator %d B", b, flatState)
		}
		if b > maxState {
			maxState = b
		}
	}
	t.Logf("two-tier, %d regions: %.1f probes/query (%.3f of N), largest coordinator state %d B",
		len(h.regions), hier, hier/stations, maxState)
}
