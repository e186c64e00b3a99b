package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// batchTestData splits person 10 across two stations and gives every other
// person a global no other query sums to, so each query's oracle answer is
// exactly what local matching can reach.
func batchTestData() map[uint32]map[core.PersonID]pattern.Pattern {
	return map[uint32]map[core.PersonID]pattern.Pattern{
		0: {10: {1, 2, 3}, 11: {3, 4, 6}},
		1: {10: {2, 2, 2}, 12: {9, 9, 9}},
		2: {13: {5, 0, 5}, 14: {1, 1, 1}},
	}
}

func batchTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Options{}, batchTestData())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

func batchTestQueries() []core.Query {
	return []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 2, Locals: []pattern.Pattern{{3, 4, 6}}},
		{ID: 3, Locals: []pattern.Pattern{{9, 9, 9}}},
		{ID: 4, Locals: []pattern.Pattern{{5, 0, 5}}},
		{ID: 5, Locals: []pattern.Pattern{{1, 1, 1}}},
	}
}

// TestRoundSizesMatchSingleRound pins the central equivalence: every round
// size — one query per round, split rounds, exactly the set, and the
// all-in-one default — returns a result set byte-equal to the single
// all-in-one round, at recall 1.0 against the oracle.
func TestRoundSizesMatchSingleRound(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries()
	ctx := context.Background()

	want, err := c.Search(ctx, queries) // default: the single all-in-one round
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		truth, err := Oracle(batchTestData(), q, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) == 0 {
			t.Fatalf("query %d matches nothing; test data broken", q.ID)
		}
		got := make(map[core.PersonID]bool)
		for _, p := range want.Persons(q.ID) {
			got[p] = true
		}
		for _, p := range truth {
			if !got[p] {
				t.Fatalf("query %d: oracle person %d missing from %v", q.ID, p, want.Persons(q.ID))
			}
		}
	}

	for _, n := range []int{1, 2, 3, len(queries), 0} {
		got, err := c.Search(ctx, queries, WithBatching(n))
		if err != nil {
			t.Fatalf("round size %d: %v", n, err)
		}
		if !reflect.DeepEqual(got.PerQuery, want.PerQuery) {
			t.Fatalf("round size %d: results %v, want %v", n, got.PerQuery, want.PerQuery)
		}
	}
}

// TestBatchingCostAccounting pins the messages-per-query contract: one
// exchange per station per round, at every round size.
func TestBatchingCostAccounting(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries() // 5 queries over 3 stations
	ctx := context.Background()

	tests := []struct {
		name        string
		opts        []SearchOption
		wantDown    uint64
		wantBatches int
	}{
		{name: "default one round", opts: nil, wantDown: 3, wantBatches: 1},
		{name: "rounds of two", opts: []SearchOption{WithBatching(2)}, wantDown: 9, wantBatches: 3},
		{name: "rounds of one", opts: []SearchOption{WithBatching(1)}, wantDown: 15, wantBatches: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := c.Search(ctx, queries, tt.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cost.MessagesDown != tt.wantDown {
				t.Fatalf("MessagesDown = %d, want %d", out.Cost.MessagesDown, tt.wantDown)
			}
			if out.Cost.MessagesUp != tt.wantDown {
				t.Fatalf("MessagesUp = %d, want %d (one reply per request)", out.Cost.MessagesUp, tt.wantDown)
			}
			if out.Cost.Batches != tt.wantBatches {
				t.Fatalf("Batches = %d, want %d", out.Cost.Batches, tt.wantBatches)
			}
			if out.Cost.FilterBytes == 0 || out.Cost.TotalBytes() == 0 {
				t.Fatal("cost tallies empty")
			}
		})
	}
}

// TestForeignVersionPeerIsCountedFailed: a peer built from other source —
// its frames stamped with a version this codec does not speak — is refused
// at its first reply. The search neither hangs nor panics: the peer is
// counted in StationsFailed, its link carries the typed wire.ErrBadVersion,
// and the other stations' results are intact.
func TestForeignVersionPeerIsCountedFailed(t *testing.T) {
	goodCenter, goodStation := transport.Pipe(nil, nil)
	go func() {
		_ = NewStation(1, map[core.PersonID]pattern.Pattern{10: {1, 2, 3}, 11: {3, 4, 5}}, goodStation).Serve()
	}()
	// The foreign peer needs a byte-level link: the version lives in the
	// encoded frame, which the in-process pipe never produces.
	centerConn, peerConn := net.Pipe()
	go func() {
		defer peerConn.Close()
		for {
			req, err := wire.ReadMessage(peerConn)
			if err != nil || req.Kind == wire.KindShutdown {
				return
			}
			frame := wire.EncodeStatsReply(wire.StatsReply{Station: 2, Length: 3}).WithRequest(req.Request).Encode()
			frame[2] = 3 // what a pre-collapse build stamped on batch frames
			if _, err := peerConn.Write(frame); err != nil {
				return
			}
		}
	}()

	c, err := NewWithLinks(Options{}, map[uint32]transport.Link{
		1: goodCenter,
		2: transport.NewTCPLink(centerConn, nil, nil),
	}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{3, 4, 5}}}}
	out, err := c.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d, want 1", out.Cost.StationsFailed)
	}
	if got := out.Persons(1); len(got) != 1 || got[0] != 11 {
		t.Fatalf("query 1 persons %v, want [11] from the healthy station", got)
	}
	ep := c.currentEpoch()
	if err := ep.muxes[ep.find(2)].Err(); !errors.Is(err, wire.ErrBadVersion) {
		t.Fatalf("foreign peer's link error = %v, want wire.ErrBadVersion", err)
	}
}

// TestDesyncedBatchReplyIsTypedError: a station echoing the wrong query
// count fails the search with a descriptive error, not a panic.
func TestDesyncedBatchReplyIsTypedError(t *testing.T) {
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
				reply = wire.EncodeStatsReply(wire.StatsReply{Station: 1, Length: 3})
			case wire.KindBatchQuery:
				reply = wire.EncodeBatchReply(wire.BatchReply{Station: 1, Queries: 99})
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
	c, err := NewWithLinks(Options{}, map[uint32]transport.Link{1: center}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	_, err = c.Search(context.Background(), []core.Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}})
	if err == nil {
		t.Fatal("desynced batch reply accepted")
	}
}

// TestBatchQueriesClampsToWireLimit: a search larger than one frame's
// query limit splits into multiple rounds instead of failing to encode.
func TestBatchQueriesClampsToWireLimit(t *testing.T) {
	queries := make([]core.Query, wire.MaxBatchQueries+5)
	rounds := batchQueries(queries, 0)
	if len(rounds) != 2 || len(rounds[0]) != wire.MaxBatchQueries || len(rounds[1]) != 5 {
		t.Fatalf("rounds %d/%v, want [MaxBatchQueries, 5]", len(rounds), []int{len(rounds[0])})
	}
	if rounds := batchQueries(queries, wire.MaxBatchQueries*3); len(rounds) != 2 {
		t.Fatalf("oversized explicit bound not clamped: %d rounds", len(rounds))
	}
	if rounds := batchQueries(queries[:10], 0); len(rounds) != 1 || len(rounds[0]) != 10 {
		t.Fatalf("small set split needlessly: %d rounds", len(rounds))
	}
	if rounds := batchQueries(queries[:10], 3); len(rounds) != 4 {
		t.Fatalf("explicit bound ignored: %d rounds", len(rounds))
	}
}
