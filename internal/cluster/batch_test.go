package cluster_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dimatch"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// batchTestData splits person 10 across two stations and gives every other
// person a global no other query sums to, so each query's oracle answer is
// exactly what local matching can reach.
func batchTestData() map[uint32]map[dimatch.PersonID]dimatch.Pattern {
	return map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}, 11: {3, 4, 6}},
		1: {10: {2, 2, 2}, 12: {9, 9, 9}},
		2: {13: {5, 0, 5}, 14: {1, 1, 1}},
	}
}

func batchTestCluster(t *testing.T) *dimatch.Cluster {
	t.Helper()
	c, err := newFromData(dimatch.Options{}, batchTestData())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

func batchTestQueries() []dimatch.Query {
	return []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 2, Locals: []dimatch.Pattern{{3, 4, 6}}},
		{ID: 3, Locals: []dimatch.Pattern{{9, 9, 9}}},
		{ID: 4, Locals: []dimatch.Pattern{{5, 0, 5}}},
		{ID: 5, Locals: []dimatch.Pattern{{1, 1, 1}}},
	}
}

// TestRoundSizesMatchSingleRound pins the central equivalence: the query set
// searched in rounds of every size — separate Search calls of one, two or
// three queries, and the whole set — answers every query exactly as the
// single all-in-one round does, at recall 1.0 against the oracle.
func TestRoundSizesMatchSingleRound(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries()
	ctx := context.Background()

	want, err := c.Search(ctx, queries) // default: the single all-in-one round
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		truth, err := dimatch.Oracle(batchTestData(), q, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) == 0 {
			t.Fatalf("query %d matches nothing; test data broken", q.ID)
		}
		got := make(map[dimatch.PersonID]bool)
		for _, p := range want.Persons(q.ID) {
			got[p] = true
		}
		for _, p := range truth {
			if !got[p] {
				t.Fatalf("query %d: oracle person %d missing from %v", q.ID, p, want.Persons(q.ID))
			}
		}
	}

	for _, n := range []int{1, 2, 3, len(queries)} {
		got := make(map[dimatch.QueryID][]dimatch.Result, len(queries))
		for rest := queries; len(rest) > 0; {
			round := rest[:min(n, len(rest))]
			rest = rest[len(round):]
			out, err := c.Search(ctx, round)
			if err != nil {
				t.Fatalf("round size %d: %v", n, err)
			}
			for id, rs := range out.PerQuery {
				got[id] = rs
			}
		}
		if !reflect.DeepEqual(got, want.PerQuery) {
			t.Fatalf("round size %d: results %v, want %v", n, got, want.PerQuery)
		}
	}
}

// TestBatchingCostAccounting pins the messages-per-query contract: a
// multi-query search is one exchange per station.
func TestBatchingCostAccounting(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries() // 5 queries over 3 stations
	t.Run("default one round", func(t *testing.T) {
		out, err := c.Search(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cost.MessagesDown != 3 || out.Cost.MessagesUp != 3 {
			t.Fatalf("messages %d down, %d up; want 3 and 3, one exchange per station", out.Cost.MessagesDown, out.Cost.MessagesUp)
		}
		if out.Cost.FilterBytes == 0 || out.Cost.TotalBytes() == 0 {
			t.Fatal("cost tallies empty")
		}
	})
}

// TestSearchRefusesRepeatedQueryIDs: a query set holding one ID twice is
// refused with ErrBadQueries by every strategy before any exchange — the
// fresh cluster's routing cache stays empty — where it would merge two
// queries' reports into one answer or keep only the last query's.
func TestSearchRefusesRepeatedQueryIDs(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries()
	queries[3].ID = queries[0].ID
	for _, s := range []dimatch.Strategy{dimatch.StrategyWBF, dimatch.StrategyBF, dimatch.StrategyNaive} {
		if _, err := c.Search(context.Background(), queries, dimatch.WithStrategy(s)); !errors.Is(err, dimatch.ErrBadQueries) {
			t.Fatalf("%v: err = %v, want ErrBadQueries", s, err)
		}
	}
	if st := c.RoutingState(); st.Entries != 0 {
		t.Fatalf("RoutingState().Entries = %d after refused searches, want 0", st.Entries)
	}
}

// TestWBFQueryLimit: a WBF search carries its whole query set in one frame,
// so one query more than wire.MaxBatchQueries is refused with ErrBadQueries
// before any exchange, and exactly that many are answered.
func TestWBFQueryLimit(t *testing.T) {
	c := batchTestCluster(t)
	queries := make([]dimatch.Query, wire.MaxBatchQueries+1)
	for i := range queries {
		queries[i] = dimatch.Query{ID: dimatch.QueryID(i + 1), Locals: []dimatch.Pattern{{int64(i), 2, 3}}}
	}
	ctx := context.Background()
	if _, err := c.Search(ctx, queries); !errors.Is(err, dimatch.ErrBadQueries) {
		t.Fatalf("%d queries: err = %v, want ErrBadQueries", len(queries), err)
	}
	if st := c.RoutingState(); st.Entries != 0 {
		t.Fatalf("RoutingState().Entries = %d after the refused search, want 0", st.Entries)
	}
	out, err := c.Search(ctx, queries[:wire.MaxBatchQueries])
	if err != nil {
		t.Fatalf("%d queries: %v", wire.MaxBatchQueries, err)
	}
	if visited := 3 - out.Cost.StationsPruned; out.Cost.MessagesDown != uint64(visited) {
		t.Fatalf("MessagesDown = %d, want %d: one frame per visited station", out.Cost.MessagesDown, visited)
	}
	if got := out.Persons(2); len(got) != 1 || got[0] != 10 {
		t.Fatalf("query 2 ({1, 2, 3}) persons %v, want [10]", got)
	}
}

// TestDesyncedBatchReplyIsTypedError: a station echoing the wrong query
// count fails the search with a descriptive error naming the member, not
// the ID the station's reply claims, and not a panic.
func TestDesyncedBatchReplyIsTypedError(t *testing.T) {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, linkMembers(map[uint32]dimatch.Link{1: desyncedStation()})...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	_, err = c.Search(context.Background(), []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}}}})
	if !errors.Is(err, wire.ErrBatchMismatch) || !strings.Contains(err.Error(), "station 1:") {
		t.Fatalf("desynced batch reply: err = %v, want wire.ErrBatchMismatch naming station 1", err)
	}
}

// desyncedStation serves a fake station that answers every batch round with
// an echo of 99 queries, and returns the center's end of its link.
func desyncedStation() dimatch.Link {
	center, stationEnd := transport.Pipe(nil, nil)
	go func() {
		for {
			msg, err := stationEnd.Recv()
			if err != nil {
				return
			}
			var reply wire.Message
			switch msg.Kind {
			case wire.KindStats:
				reply = wire.EncodeStatsReply(wire.StatsReply{Length: 3})
			case wire.KindBatchQuery:
				reply = wire.EncodeBatchReply(wire.BatchReply{Station: 99, Queries: 99})
			case wire.KindShutdown:
				return
			default:
				return
			}
			if err := stationEnd.Send(reply.WithRequest(msg.Request)); err != nil {
				return
			}
		}
	}()
	return center
}
