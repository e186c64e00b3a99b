package dimatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dimatch/internal/index"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// handedOver returns the digest the coordinator holds for each of ids and
// requires one for every station.
func handedOver(t *testing.T, c *Cluster, ids []uint32) map[uint32]*index.Summary {
	t.Helper()
	out := make(map[uint32]*index.Summary, len(ids))
	for _, id := range ids {
		sum, _ := c.summaries.get(id)
		if sum == nil {
			t.Fatalf("station %d: no digest handed over", id)
		}
		out[id] = sum
	}
	return out
}

// requirePulledEqual invalidates every slot of handed, lets one routed
// search pull each station's own digest, and requires it byte-equal to the
// handed-over one: words, bits, hash count, insertions, length and seed.
func requirePulledEqual(t *testing.T, c *Cluster, handed map[uint32]*index.Summary, q Query) {
	t.Helper()
	for id := range handed {
		c.summaries.invalidate(id)
	}
	out, err := c.Search(context.Background(), []Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.SummaryRefreshes != len(c.currentEpoch().ids) {
		t.Fatalf("the search after invalidating pulled %d digests, want %d", out.Cost.SummaryRefreshes, len(c.currentEpoch().ids))
	}
	for id, want := range handed {
		got, _ := c.summaries.get(id)
		if got == nil {
			t.Fatalf("station %d: no digest pulled", id)
		}
		if !slices.Equal(got.Words(), want.Words()) || got.Bits() != want.Bits() || got.Hashes() != want.Hashes() ||
			got.Inserted() != want.Inserted() || got.Length() != want.Length() || got.Seed() != want.Seed() {
			t.Fatalf("station %d: pulled digest (%d bits, k %d, %d inserted) differs from the handed-over one (%d bits, k %d, %d inserted)",
				id, got.Bits(), got.Hashes(), got.Inserted(), want.Bits(), want.Hashes(), want.Inserted())
		}
	}
}

// TestPlaceHandsOverDigests: Place into empty stations, and a public Ingest
// into an empty one, leave the coordinator each station's digest, so the
// first routed search pulls none, and each is byte-equal to the digest the
// station builds when pulled.
func TestPlaceHandsOverDigests(t *testing.T) {
	ctx := context.Background()
	stations := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	patterns := benchPatterns(2000)
	c := newPlacedCluster(t, stations, 2, patterns)
	handed := handedOver(t, c, stations)
	q := Query{ID: 1, Locals: []Pattern{patterns[7]}}
	first, err := c.Search(ctx, []Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost.SummaryRefreshes != 0 || !found(first, 7) {
		t.Fatalf("the first routed search after Place pulled %d digests (want 0) and found person 7: %v", first.Cost.SummaryRefreshes, found(first, 7))
	}
	requirePulledEqual(t, c, handed, q)

	// A public Ingest into an empty station of a cluster that holds nothing
	// else yet.
	d, err := NewCluster(placedOptions(), 24, emptyMembers([]uint32{1, 2})...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	batch := map[PersonID]Pattern{3: patterns[3], 9: patterns[9], 40: patterns[40]}
	if err := d.Ingest(ctx, 2, batch); err != nil {
		t.Fatal(err)
	}
	requirePulledEqual(t, d, handedOver(t, d, []uint32{2}), Query{ID: 1, Locals: []Pattern{patterns[9]}})
}

// TestNoHandOverUnlessExact: the coordinator installs no digest of its own
// for an ingest into a station that already held residents, or for a
// failed exchange; the next routed search pulls the station's digest and
// finds the ingested person if the station holds it. An all-zero row never
// leaves the coordinator, so the ack counts exactly the rows sent: station
// 1's digest is handed over, and the next search pulls station 2's alone.
func TestNoHandOverUnlessExact(t *testing.T) {
	ctx := context.Background()
	pat := Pattern{5, 1, 7, 2}
	for _, tc := range []struct {
		name       string
		seed       map[PersonID]Pattern // station 1's residents before the ingest
		batch      map[PersonID]Pattern
		fail       bool // the ingest frame's send fails
		handedOver bool // station 1's digest is the coordinator's own
	}{
		{name: "station held residents", seed: map[PersonID]Pattern{50: {9, 9, 9, 9}}, batch: map[PersonID]Pattern{10: pat}},
		{name: "all-zero row dropped", batch: map[PersonID]Pattern{10: pat, 11: {0, 0, 0, 0}}, handedOver: true},
		{name: "exchange failed", batch: map[PersonID]Pattern{10: pat}, fail: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m1, l1, _ := linkStation(t, "", 1, tc.seed)
			m2, _, _ := linkStation(t, "", 2, map[PersonID]Pattern{60: {40, 30, 20, 10}})
			c, err := NewCluster(placedOptions(), 4, m1, m2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			if tc.fail {
				l1.arm(wire.KindIngest)
			}
			if err := c.Ingest(ctx, 1, tc.batch); (err != nil) != tc.fail {
				t.Fatalf("Ingest: %v", err)
			}
			if sum, _ := c.summaries.get(1); (sum != nil) != tc.handedOver {
				t.Fatalf("digest cached for station 1 after the ingest: %v, want %v", sum != nil, tc.handedOver)
			}
			out, err := c.Search(ctx, []Query{{ID: 1, Locals: []Pattern{pat}}})
			if err != nil {
				t.Fatal(err)
			}
			pulls := 2
			if tc.handedOver {
				pulls = 1
			}
			// A failed send never reached the station: person 10 is not there.
			if out.Cost.SummaryRefreshes != pulls || found(out, 10) == tc.fail {
				t.Fatalf("the next routed search pulled %d digests (want %d) and found person 10: %v", out.Cost.SummaryRefreshes, pulls, found(out, 10))
			}
		})
	}
}

// TestHandOverYieldsToLaterIngest: two ingests into station 1 while the
// coordinator still counts it empty each build a digest. The first's ack,
// which counts exactly its rows, is held until the second's, which counts
// both batches, has landed. The first's digest lacks the second's person,
// so it must not be installed: the next routed search pulls station 1's
// digest and finds the second's person as full fan-out does, though station
// 2 holds an equal pattern and would be visited alone.
func TestHandOverYieldsToLaterIngest(t *testing.T) {
	ctx := context.Background()
	center, end := transport.Pipe(nil, nil)
	st, err := newStation(1, nil, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = st.Serve() }()
	hl := newHoldLink(center)
	later := Pattern{40, 30, 20, 10}
	m2, _, _ := linkStation(t, "", 2, map[PersonID]Pattern{60: later})
	c, err := NewCluster(placedOptions(), 4, Member{ID: 1, Link: hl}, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	first, second := newGate(t), newGate(t)
	hl.holdReceipts(wire.KindStatsReply, first)
	firstDone := make(chan error, 1)
	go func() { firstDone <- c.Ingest(ctx, 1, map[PersonID]Pattern{10: {5, 1, 7, 2}}) }()
	<-hl.held
	hl.holdReceipts(wire.KindStatsReply, second)
	secondDone := make(chan error, 1)
	go func() { secondDone <- c.Ingest(ctx, 1, map[PersonID]Pattern{20: later}) }()
	<-hl.held
	openGate(second)
	if err := <-secondDone; err != nil {
		t.Fatal(err)
	}
	openGate(first)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if sum, _ := c.summaries.get(1); sum != nil {
		t.Fatalf("station 1 keeps a digest of %d insertions, built before the later ingest applied", sum.Inserted())
	}
	q := []Query{{ID: 1, Locals: []Pattern{later}}}
	routed, err := c.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Search(ctx, q, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	if !found(routed, 20) {
		t.Fatalf("the routed search missed person 20: %v", routed.PerQuery[1])
	}
	assertSameResults(t, "after the held ack", q, full, routed)
}

// TestHandOverRacesPlace races public ingests into the stations of a bulk
// Place (run it under -race): every ingest and the Place build digests for
// stations they see empty. Afterwards every acked person is found by a
// routed search, with the results of full fan-out.
func TestHandOverRacesPlace(t *testing.T) {
	ctx := context.Background()
	stations := []uint32{1, 2, 3, 4, 5, 6}
	c, err := NewCluster(placedOptions(), 24, emptyMembers(stations)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	placed := benchPatterns(3000)
	rng := rand.New(rand.NewSource(2))
	ingested := make(map[PersonID]Pattern)
	perStation := make([]map[PersonID]Pattern, len(stations))
	for i := range perStation {
		perStation[i] = make(map[PersonID]Pattern)
		for k := 0; k < 40; k++ {
			p := PersonID(10_000 + 100*i + k)
			pat := make(Pattern, 24)
			for j := range pat {
				pat[j] = rng.Int63n(50) + 1
			}
			perStation[i][p], ingested[p] = pat, pat
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(stations)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- c.Place(ctx, placed, WithReplication(2))
	}()
	for i, id := range stations {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Two ingests per station, interleaving with the Place's.
			halves := []map[PersonID]Pattern{{}, {}}
			for p, pat := range perStation[i] {
				halves[p%2][p] = pat
			}
			for _, half := range halves {
				if err := c.Ingest(ctx, id, half); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var queries []Query
	want := make(map[QueryID]PersonID)
	add := func(p PersonID, pat Pattern) {
		id := QueryID(len(queries) + 1)
		queries = append(queries, Query{ID: id, Locals: []Pattern{pat}})
		want[id] = p
	}
	for p := PersonID(1); p <= 3000; p += 97 {
		add(p, placed[p])
	}
	for _, p := range sortedKeys(ingested) {
		if p%7 == 0 {
			add(p, ingested[p])
		}
	}
	routed, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if !slices.ContainsFunc(routed.PerQuery[q.ID], func(r Result) bool { return r.Person == want[q.ID] && r.Score() == 1 }) {
			t.Fatalf("query %d: the routed search missed person %d", q.ID, want[q.ID])
		}
	}
	assertSameResults(t, fmt.Sprintf("%d queries after the race", len(queries)), queries, full, routed)
}

// TestHandOverAfterResidentsItDidNotSee: an ingest that saw station 1 empty
// must not install its digest when the station holds a row it did not add,
// another ingest's person 11. "frame held": its frame is held back until
// the other ingest has placed 11 and handed its digest over. "ack held": the
// other ingest's frame lands first but its ack is held, so the coordinator
// still counts the station empty when this one's ack lands, and no digest
// may be cached then. With an all-zero row for person 11, which the station
// drops, the station acks as many residents as the ingest sent rows. Every
// time a routed search must find person 11 as full fan-out does, though
// station 2 holds an equal pattern and would be visited alone.
func TestHandOverAfterResidentsItDidNotSee(t *testing.T) {
	ctx := context.Background()
	alone := map[PersonID]Pattern{10: {5, 1, 7, 2}}
	withZero := map[PersonID]Pattern{10: {5, 1, 7, 2}, 11: {0, 0, 0, 0}}
	other := Pattern{40, 30, 20, 10}
	for _, tc := range []struct {
		name      string
		frameHeld bool
		mine      map[PersonID]Pattern
	}{
		{name: "frame held, all-zero row", frameHeld: true, mine: withZero},
		{name: "ack held", mine: alone},
		{name: "ack held, all-zero row", mine: withZero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			center, end := transport.Pipe(nil, nil)
			st, err := newStation(1, nil, end, nil)
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = st.Serve() }()
			hl := newHoldLink(center)
			m2, _, _ := linkStation(t, "", 2, map[PersonID]Pattern{60: other})
			c, err := NewCluster(placedOptions(), 4, Member{ID: 1, Link: hl}, m2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()

			gate := newGate(t)
			held := make(chan error, 1)
			if tc.frameHeld {
				hl.holdSends(wire.KindIngest, gate)
				go func() { held <- c.Ingest(ctx, 1, tc.mine) }()
				<-hl.held
				hl.holdSends(wire.KindIngest, nil)
				if err := c.Ingest(ctx, 1, map[PersonID]Pattern{11: other}); err != nil {
					t.Fatal(err)
				}
				openGate(gate)
				if err := <-held; err != nil {
					t.Fatal(err)
				}
			} else {
				hl.holdReceipts(wire.KindStatsReply, gate)
				go func() { held <- c.Ingest(ctx, 1, map[PersonID]Pattern{11: other}) }()
				<-hl.held
				hl.holdReceipts(wire.KindStatsReply, nil)
				if err := c.Ingest(ctx, 1, tc.mine); err != nil {
					t.Fatal(err)
				}
				if sum, _ := c.summaries.get(1); sum != nil {
					t.Fatalf("station 1 holds a digest of %d insertions, though its ack counted a resident the ingest did not send", sum.Inserted())
				}
				openGate(gate)
				if err := <-held; err != nil {
					t.Fatal(err)
				}
			}
			q := []Query{{ID: 1, Locals: []Pattern{other}}}
			routed, err := c.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			full, err := c.Search(ctx, q, WithRouting(RoutingFull))
			if err != nil {
				t.Fatal(err)
			}
			if !found(routed, 11) {
				t.Fatalf("the routed search missed person 11: %v", routed.PerQuery[1])
			}
			assertSameResults(t, tc.name, q, full, routed)
		})
	}
}

// TestHandOverOutgrownIsPulled: a digest handed over for the first of
// several batches into empty stations (a Place in chunks, a stream's
// flushes) is sized for that batch alone. The first routed search, for one
// placed person, must prune and send as it does over digests pulled from
// the stations: one replica visited.
func TestHandOverOutgrownIsPulled(t *testing.T) {
	ctx := context.Background()
	patterns := benchPatterns(2400)
	persons := sortedKeys(patterns)
	// A first batch of 16 persons, then the rest in 4 batches.
	cuts := []int{0, 16, 612, 1208, 1804, len(persons)}
	queries := []Query{{ID: 1, Locals: []Pattern{patterns[1000]}}}
	stations := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name string
		load func(c *Cluster, batch map[PersonID]Pattern) error
	}{
		{name: "place in chunks", load: func(c *Cluster, batch map[PersonID]Pattern) error {
			return c.Place(ctx, batch, WithReplication(2))
		}},
		{name: "stream", load: func(c *Cluster, batch map[PersonID]Pattern) error {
			in, err := c.Stream(StreamOptions{Replication: 2})
			if err != nil {
				return err
			}
			for _, p := range sortedKeys(batch) {
				if err := in.Submit(ctx, p, batch[p]); err != nil {
					return err
				}
			}
			return errors.Join(in.Flush(ctx), in.Close())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(placedOptions(), 24, emptyMembers(stations)...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			for b := 0; b+1 < len(cuts); b++ {
				batch := make(map[PersonID]Pattern, cuts[b+1]-cuts[b])
				for _, p := range persons[cuts[b]:cuts[b+1]] {
					batch[p] = patterns[p]
				}
				if err := tc.load(c, batch); err != nil {
					t.Fatal(err)
				}
			}
			first, err := c.Search(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range stations {
				c.summaries.invalidate(id)
			}
			pulled, err := c.Search(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			if pulled.Cost.SummaryRefreshes != len(stations) || pulled.Cost.StationsPruned == 0 {
				t.Fatalf("the search over pulled digests refreshed %d and pruned %d stations", pulled.Cost.SummaryRefreshes, pulled.Cost.StationsPruned)
			}
			if first.Cost.StationsPruned != pulled.Cost.StationsPruned || first.Cost.MessagesUp != pulled.Cost.MessagesUp {
				t.Fatalf("the first routed search pruned %d stations and sent %d messages up; over pulled digests it prunes %d and sends %d",
					first.Cost.StationsPruned, first.Cost.MessagesUp, pulled.Cost.StationsPruned, pulled.Cost.MessagesUp)
			}
			assertSameResults(t, tc.name, queries, pulled, first)
		})
	}
}
