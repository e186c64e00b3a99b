package cluster_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dimatch"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// TestVerifyRemovesFalsePositives builds a scenario where the WBF pipeline
// admits a person whose global pattern does not actually match (an ε-band
// artifact) and checks that the verification phase deletes them while
// keeping every true match.
func TestVerifyRemovesFalsePositives(t *testing.T) {
	// Query: global {4,8,12} as locals {2,4,6} and {2,4,6}. With ε=1 and
	// scaled bands, person 30's single-station {4,9,14} matches the full
	// combination in accumulated space (acc {4,13,27} vs {4,12,24}: diffs
	// 0,1,3 within bands 1,2,3) — but per-interval diffs are 0,1,2, which
	// violates Eq. 2 at ε=1. Persons 10/11 are true matches.
	opts := dimatch.Options{
		Params: dimatch.Params{
			Bits:           1 << 14,
			Hashes:         4,
			Samples:        3,
			Epsilon:        1,
			Seed:           9,
			PositionSalted: true,
		},
		MinScore: 0.9,
	}
	data := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {
			10: {2, 4, 6},
			30: {4, 9, 14},
		},
		1: {
			10: {2, 4, 6},
			11: {4, 8, 12},
		},
	}
	query := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{2, 4, 6}, {2, 4, 6}}}

	// Without verification the artifact is reported.
	c := startCluster(t, opts, data)
	out, err := c.Search(context.Background(), []dimatch.Query{query}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	unverified := make(map[dimatch.PersonID]bool)
	for _, r := range out.PerQuery[1] {
		unverified[r.Person] = true
	}
	if !unverified[30] {
		t.Skip("scenario no longer produces the band artifact; adjust values")
	}

	// With verification it is gone and the true matches survive.
	cv := startCluster(t, opts, data)
	out, err = cv.Search(context.Background(), []dimatch.Query{query}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	verified := make(map[dimatch.PersonID]bool)
	for _, r := range out.PerQuery[1] {
		verified[r.Person] = true
	}
	if verified[30] {
		t.Fatalf("verification kept the false positive: %+v", out.PerQuery[1])
	}
	if !verified[10] || !verified[11] {
		t.Fatalf("verification dropped a true match: %+v", out.PerQuery[1])
	}
}

func TestVerifyAccountsCostsAndKeepsExactMatches(t *testing.T) {
	c1 := startCluster(t, testOptions(), paperScenario())
	plain, err := c1.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	c2 := startCluster(t, testOptions(), paperScenario())
	ver, err := c2.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	// The fetch round trip is metered: verified searches move more bytes
	// than unverified ones (candidate patterns come back).
	if ver.Cost.BytesUp <= plain.Cost.BytesUp {
		t.Fatalf("verification fetch not metered: %d <= %d", ver.Cost.BytesUp, plain.Cost.BytesUp)
	}
	if ver.Cost.CenterStorageBytes <= plain.Cost.CenterStorageBytes {
		t.Fatal("fetched patterns not accounted in center storage")
	}
	// On this exact-match scenario verification keeps the true global
	// matches (10 and 11) and removes the partial match (14), whose
	// aggregate {1,2,3} is not the query global.
	got := ver.Persons(1)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("verified results = %v, want [10 11]", got)
	}
}

func TestVerifyNoCandidatesIsNoop(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	// A query matching nobody.
	q := dimatch.Query{ID: 5, Locals: []dimatch.Pattern{{90, 90, 90}}}
	out, err := c.Search(context.Background(), []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[5]) != 0 {
		t.Fatalf("unexpected results: %+v", out.PerQuery[5])
	}
}

func TestVerifyPartialMatchSurvives(t *testing.T) {
	// Verification checks Eq. 2 on the materialized global. Person 14 holds
	// only the first local piece, so their global is {1,2,3}, which does
	// NOT match the query global {3,4,5}: strict verification removes
	// partial matches. This is the documented semantics: Verify answers the
	// exact IPM question.
	c := startCluster(t, testOptions(), map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {14: {1, 2, 3}},
		1: {10: {1, 2, 3}},
		2: {10: {2, 2, 2}},
	})
	out, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	got := out.Persons(1)
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("verified results = %v, want [10] (partial match removed)", got)
	}
}

// lengthMaskLink hides a station's pattern length from the join handshake:
// the first stats reply it carries reports length 3, so a station serving
// longer series joins a length-3 cluster and ships its rows afterwards.
type lengthMaskLink struct {
	dimatch.Link
	masked atomic.Bool
}

func (l *lengthMaskLink) Recv() (wire.Message, error) {
	m, err := l.Link.Recv()
	if err == nil && m.Kind == wire.KindStatsReply && l.masked.CompareAndSwap(false, true) {
		sr, err := wire.DecodeStatsReply(m)
		if err != nil {
			return m, err
		}
		sr.Length = 3
		m = wire.EncodeStatsReply(sr).WithRequest(m.Request)
	}
	return m, err
}

// TestForeignLengthStoreIsSkipped: NewCluster refuses a link member serving
// longer series than the cluster's at its handshake, and closes its link. A
// peer that passes the handshake and ships such rows afterwards is outside
// input all the same: every reader of raw patterns skips them (they cannot
// satisfy Eq. 2 against a length-3 query) instead of indexing past a
// global, and the well-formed station's person is found.
func TestForeignLengthStoreIsSkipped(t *testing.T) {
	stores := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {3, 4, 5}},
		1: {20: {3, 4, 5, 6}, 10: {1, 1, 1, 1}},
	}
	serve := func(mask bool) (links map[uint32]dimatch.Link, foreignDone chan struct{}) {
		links = make(map[uint32]dimatch.Link)
		foreignDone = make(chan struct{})
		for id, locals := range stores {
			center, stationEnd := transport.Pipe(nil, nil)
			go func() {
				_ = dimatch.ServeStation(id, locals, stationEnd)
				if id == 1 {
					close(foreignDone)
				}
			}()
			links[id] = center
			if id == 1 && mask {
				links[id] = &lengthMaskLink{Link: center}
			}
		}
		return links, foreignDone
	}

	links, foreignDone := serve(false)
	if _, err := dimatch.NewCluster(testOptions(), 3, linkMembers(links)...); !errors.Is(err, dimatch.ErrLengthMismatch) {
		t.Fatalf("NewCluster over a length-4 station: err = %v, want ErrLengthMismatch", err)
	}
	select {
	case <-foreignDone:
	case <-time.After(2 * time.Second):
		t.Fatal("the refused station's link was left open")
	}

	links, _ = serve(true)
	c, err := dimatch.NewCluster(testOptions(), 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{3, 4, 5}}}}
	for _, opts := range [][]dimatch.SearchOption{
		{dimatch.WithStrategy(dimatch.StrategyNaive)},
		{dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true)},
		{dimatch.WithStrategy(dimatch.StrategyBF)},
	} {
		out, err := c.Search(context.Background(), queries, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Persons(1); len(got) != 1 || got[0] != 10 {
			t.Fatalf("%v: persons = %v, want [10]", out.Strategy, got)
		}
	}
}
