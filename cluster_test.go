package dimatch

import (
	"context"
	"testing"

	"dimatch/internal/bloom"
	"dimatch/internal/core"
	"dimatch/internal/transport"
)

func newTestPipe() (Link, Link) {
	return transport.Pipe(nil, nil)
}

// newFromData builds a cluster over station-major test data at the
// pattern length its first pattern has (0, refused, when it holds none).
func newFromData(opts Options, data map[uint32]map[PersonID]Pattern) (*Cluster, error) {
	length := 0
	for _, locals := range data {
		for _, l := range locals {
			length = len(l)
			break
		}
		if length > 0 {
			break
		}
	}
	return NewCluster(opts, length, Members(data)...)
}

// linkMembers lists one remote member per established link.
func linkMembers(links map[uint32]Link) []Member {
	ms := make([]Member, 0, len(links))
	for id, l := range links {
		ms = append(ms, Member{ID: id, Link: l})
	}
	return ms
}

// emptyMembers lists one in-process member per id, each holding nothing.
func emptyMembers(ids []uint32) []Member {
	ms := make([]Member, len(ids))
	for i, id := range ids {
		ms[i] = Member{ID: id}
	}
	return ms
}

// paperScenario builds the running example of Section IV-B as a cluster:
// the query person's data is {1,2,3} at station 0 and {2,2,2} at station 1.
// Residents:
//
//	person 10: exact split across stations 0 and 1 (true match, weight 1)
//	person 11: global pattern {3,4,5} stored whole at station 2 (true match)
//	person 12: {3,4,5} at ALL of stations 0,1,2 (the paper's counterexample:
//	           aggregate {9,12,15}, must be deleted by the sum>1 rule)
//	person 13: unrelated {7,1,9} at station 0 (no match)
//	person 14: {1,2,3} at station 0 only (partial: weight 1/2)
func paperScenario() map[uint32]map[PersonID]Pattern {
	return map[uint32]map[PersonID]Pattern{
		0: {
			10: {1, 2, 3},
			12: {3, 4, 5},
			13: {7, 1, 9},
			14: {1, 2, 3},
		},
		1: {
			10: {2, 2, 2},
			12: {3, 4, 5},
		},
		2: {
			11: {3, 4, 5},
			12: {3, 4, 5},
		},
	}
}

func paperQuery() Query {
	return Query{ID: 1, Locals: []Pattern{{1, 2, 3}, {2, 2, 2}}}
}

func testOptions() Options {
	return Options{
		Params: Params{
			Bits:    1 << 14,
			Hashes:  4,
			Samples: 3,
			Epsilon: 0,
			Seed:    77,
		},
	}
}

func startCluster(t *testing.T, opts Options, data map[uint32]map[PersonID]Pattern) *Cluster {
	t.Helper()
	c, err := newFromData(opts, data)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return c
}

func TestAutoSizing(t *testing.T) {
	opts := testOptions()
	opts.Params.Bits = 0 // request auto-sizing
	opts.Params.Hashes = 0
	c := startCluster(t, opts, paperScenario())
	q := []Query{paperQuery()}
	for _, strat := range []Strategy{StrategyWBF, StrategyBF} {
		out, err := c.Search(context.Background(), q, WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.PerQuery[1]) == 0 {
			t.Fatalf("auto-sized %v search returned nothing", strat)
		}
	}
	// The WBF is sized for the wire (one hash), the BF baseline for memory.
	cfg := c.searchDefaults()
	wbf, err := c.resolveParams(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := c.bfParams(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.EstimateInsertions(wbf, c.length, q)
	if err != nil {
		t.Fatal(err)
	}
	if m, k := bloom.OptimalParams(n, c.opts.TargetFP); wbf.Hashes != 1 || bf.Bits != m || bf.Hashes != k {
		t.Fatalf("WBF sized (m %d, k %d), BF (m %d, k %d); want k = 1 and BF (m %d, k %d)", wbf.Bits, wbf.Hashes, bf.Bits, bf.Hashes, m, k)
	}
}

func TestStationSkipsZeroPatterns(t *testing.T) {
	link1, _ := newTestPipe()
	s, _ := newStation(0, map[PersonID]Pattern{
		1: {0, 0, 0},
		2: {1, 2, 3},
	}, link1, nil)
	if s.Residents() != 1 {
		t.Fatalf("Residents = %d, want 1 (zero pattern dropped)", s.Residents())
	}
	if s.StorageBytes() != 24 {
		t.Fatalf("StorageBytes = %d, want 24", s.StorageBytes())
	}
}

// TestZeroSumPatternsAreKept: only an all-zero pattern is dropped. One
// whose values cancel out to a zero sum is a resident like any other —
// seeded, placed, ingested or streamed — and the naive search finds the
// person it belongs to.
func TestZeroSumPatternsAreKept(t *testing.T) {
	data := map[uint32]map[PersonID]Pattern{
		1: {7: {5, -5, 0}, 8: {1, 1, 1}},
		2: {7: {0, 6, 1}},
	}
	c, err := newFromData(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Shutdown() }()
	ctx := context.Background()
	residents := func(want map[uint32]int) {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st.Stations {
			if s.Residents != want[s.Station] {
				t.Fatalf("station %d holds %d residents, want %d", s.Station, s.Residents, want[s.Station])
			}
		}
	}
	residents(map[uint32]int{1: 2, 2: 1})

	q := Query{ID: 1, Locals: []Pattern{{5, 1, 1}}}
	oracle, err := Oracle(data, q, 0, 0)
	if err != nil || len(oracle) != 1 || oracle[0] != 7 {
		t.Fatalf("Oracle = %v, %v; want [7]", oracle, err)
	}
	out, err := c.Search(ctx, []Query{q}, WithStrategy(StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	if rs := out.PerQuery[1]; len(rs) != 1 || rs[0].Person != 7 {
		t.Fatalf("naive search answered %v, want person 7", rs)
	}

	// Placed, ingested and streamed zero-sum patterns land; all-zero ones
	// are dropped on every path.
	if err := c.Place(ctx, map[PersonID]Pattern{20: {3, -3, 0}, 21: {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, 1, map[PersonID]Pattern{30: {2, -1, -1}, 31: {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p, pat := range map[PersonID]Pattern{40: {1, 0, -1}, 41: {0, 0, 0}} {
		if err := in.Submit(ctx, p, pat); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Placed(); got != 2 {
		t.Fatalf("Placed = %d, want 2 (persons 20 and 40)", got)
	}
	residents(map[uint32]int{1: 5, 2: 3})
}

// TestFilterStrategiesAnswerByPieces: Oracle and the naive strategy match a
// person's global pattern, while WBF and BF match each station's piece
// against the combinations of the query's locals. A person whose pieces are
// not such combinations is found by the naive strategy alone, whatever the
// sign of its cells; a negative piece can never be a local, because
// Query.Validate refuses one.
func TestFilterStrategiesAnswerByPieces(t *testing.T) {
	ctx := context.Background()
	opts := Options{Params: Params{Bits: 4096, Hashes: 3, PositionSalted: true}}
	for _, tc := range []struct {
		name   string
		pieces [2]Pattern // person 7 at stations 1 and 2; the sum is {5, 1, 1}
		locals []Pattern
		found  map[Strategy]bool
	}{
		{
			name:   "negative piece, one local",
			pieces: [2]Pattern{{5, -5, 0}, {0, 6, 1}},
			locals: []Pattern{{5, 1, 1}},
			found:  map[Strategy]bool{StrategyNaive: true},
		},
		{
			// Unsalted, {5, 0, 0} accumulates to 5 at every sample and so
			// hits the query's first sample's band at the others: a
			// cross-position false positive, not a match.
			name:   "non-negative pieces, one local",
			pieces: [2]Pattern{{5, 0, 0}, {0, 1, 1}},
			locals: []Pattern{{5, 1, 1}},
			found:  map[Strategy]bool{StrategyNaive: true},
		},
		{
			name:   "the pieces as the locals",
			pieces: [2]Pattern{{5, 0, 0}, {0, 1, 1}},
			locals: []Pattern{{5, 0, 0}, {0, 1, 1}},
			found:  map[Strategy]bool{StrategyNaive: true, StrategyWBF: true, StrategyBF: true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := map[uint32]map[PersonID]Pattern{1: {7: tc.pieces[0]}, 2: {7: tc.pieces[1]}}
			c, err := newFromData(opts, data)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Shutdown() }()
			q := Query{ID: 1, Locals: tc.locals}
			if oracle, err := Oracle(data, q, 0, 0); err != nil || len(oracle) != 1 || oracle[0] != 7 {
				t.Fatalf("Oracle = %v, %v; want [7]", oracle, err)
			}
			for _, st := range []Strategy{StrategyNaive, StrategyWBF, StrategyBF} {
				out, err := c.Search(ctx, []Query{q}, WithStrategy(st))
				if err != nil {
					t.Fatal(err)
				}
				rs := out.PerQuery[1]
				if found := len(rs) == 1 && rs[0].Person == 7; found != tc.found[st] || len(rs) > 1 {
					t.Fatalf("%v answered %v; want person 7 found: %v", st, rs, tc.found[st])
				}
				if st == StrategyWBF && tc.found[st] && (rs[0].Score() != 1 || rs[0].Stations != 2) {
					t.Fatalf("WBF scored person 7 %v from %d stations, want 1 from 2", rs[0].Score(), rs[0].Stations)
				}
			}
		})
	}
	q := Query{ID: 1, Locals: []Pattern{{5, -5, 0}, {0, 6, 1}}}
	if err := q.Validate(); err == nil || err.Error() != "core: local 0 has negative values" {
		t.Fatalf("a negative local validated: %v", err)
	}
}
