package cluster_test

import (
	"context"
	"errors"
	"testing"

	"dimatch"
	"dimatch/internal/transport"
)

// The helpers below build clusters through dimatch's exported API. The root
// package's white-box tests keep their own copies under the same names: a
// helper in package dimatch's tests is not importable from here, and a
// helper package importing dimatch cannot serve those tests.

func newTestPipe() (dimatch.Link, dimatch.Link) {
	return transport.Pipe(nil, nil)
}

// newFromData builds a cluster over station-major test data at the
// pattern length its first pattern has (0, refused, when it holds none).
func newFromData(opts dimatch.Options, data map[uint32]map[dimatch.PersonID]dimatch.Pattern) (*dimatch.Cluster, error) {
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
	return dimatch.NewCluster(opts, length, dimatch.Members(data)...)
}

// linkMembers lists one remote member per established link.
func linkMembers(links map[uint32]dimatch.Link) []dimatch.Member {
	ms := make([]dimatch.Member, 0, len(links))
	for id, l := range links {
		ms = append(ms, dimatch.Member{ID: id, Link: l})
	}
	return ms
}

// emptyMembers lists one in-process member per id, each holding nothing.
func emptyMembers(ids []uint32) []dimatch.Member {
	ms := make([]dimatch.Member, len(ids))
	for i, id := range ids {
		ms[i] = dimatch.Member{ID: id}
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
func paperScenario() map[uint32]map[dimatch.PersonID]dimatch.Pattern {
	return map[uint32]map[dimatch.PersonID]dimatch.Pattern{
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

func paperQuery() dimatch.Query {
	return dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}}
}

func testOptions() dimatch.Options {
	return dimatch.Options{
		Params: dimatch.Params{
			Bits:    1 << 14,
			Hashes:  4,
			Samples: 3,
			Epsilon: 0,
			Seed:    77,
		},
	}
}

func startCluster(t *testing.T, opts dimatch.Options, data map[uint32]map[dimatch.PersonID]dimatch.Pattern) *dimatch.Cluster {
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

// assertSameResults fails unless the two outcomes rank identically for
// every query.
func assertSameResults(t *testing.T, label string, queries []dimatch.Query, want, got *dimatch.Outcome) {
	t.Helper()
	for _, q := range queries {
		w, g := want.PerQuery[q.ID], got.PerQuery[q.ID]
		if len(w) != len(g) {
			t.Fatalf("%s query %d: %d results, want %d (%v vs %v)", label, q.ID, len(g), len(w), g, w)
		}
		for i := range w {
			if w[i].Person != g[i].Person || w[i].Numerator != g[i].Numerator || w[i].Denominator != g[i].Denominator {
				t.Fatalf("%s query %d result %d: %+v, want %+v", label, q.ID, i, g[i], w[i])
			}
		}
	}
}

// placedOptions sizes the filter explicitly so the tiny populations of these
// tests cannot hit Bloom false positives.
func placedOptions() dimatch.Options {
	return dimatch.Options{Params: dimatch.Params{Bits: 1 << 16, Hashes: 4, Samples: 4, Epsilon: 0, Seed: 1}}
}

// newPlacedCluster stands up an empty in-process cluster and places the
// given patterns with replication r.
func newPlacedCluster(t *testing.T, stations []uint32, r int, patterns map[dimatch.PersonID]dimatch.Pattern) *dimatch.Cluster {
	t.Helper()
	length := 0
	for _, p := range patterns {
		length = len(p)
		break
	}
	c, err := dimatch.NewCluster(placedOptions(), length, emptyMembers(stations)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	if err := c.Place(context.Background(), patterns, dimatch.WithReplication(r)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWBFSearchPaperScenario(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	out, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	results := out.PerQuery[1]
	if len(results) < 2 {
		t.Fatalf("results = %+v, want at least persons 10 and 11", results)
	}
	// Persons 10 and 11 tie at weight 1 and rank first; person 12 deleted;
	// person 13 absent; person 14 at weight 1/2 behind them.
	if results[0].Person != 10 || results[0].Score() != 1.0 {
		t.Fatalf("first = %+v, want person 10 at weight 1", results[0])
	}
	if results[1].Person != 11 || results[1].Score() != 1.0 {
		t.Fatalf("second = %+v, want person 11 at weight 1", results[1])
	}
	for _, r := range results {
		if r.Person == 12 {
			t.Fatalf("person 12 (aggregate {9,12,15}) must be deleted: %+v", results)
		}
		if r.Person == 13 {
			t.Fatalf("person 13 must not match: %+v", results)
		}
	}
	if last := results[len(results)-1]; last.Person != 14 || last.Score() != 0.5 {
		t.Fatalf("last = %+v, want person 14 at weight 1/2", last)
	}
	if out.Cost.BytesDown == 0 || out.Cost.BytesUp == 0 {
		t.Fatalf("costs not metered: %+v", out.Cost)
	}
	if out.Cost.FilterBytes == 0 {
		t.Fatal("filter bytes not recorded")
	}
}

func TestNaiveMatchesOracle(t *testing.T) {
	data := paperScenario()
	c := startCluster(t, testOptions(), data)
	q := paperQuery()
	out, err := c.Search(context.Background(), []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dimatch.Oracle(data, q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Persons(1)
	if len(got) != len(oracle) {
		t.Fatalf("naive %v vs oracle %v", got, oracle)
	}
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("naive %v vs oracle %v", got, oracle)
		}
	}
	// Exact-match scenario: persons 10 and 11 only.
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("naive results %v, want [10 11]", got)
	}
	if out.Cost.CenterStorageBytes == 0 {
		t.Fatal("naive center storage must count shipped data")
	}
}

func TestBFSearchSupersetOfWBF(t *testing.T) {
	data := paperScenario()
	c := startCluster(t, testOptions(), data)
	q := paperQuery()
	wbf, err := c.Search(context.Background(), []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	bf, err := c.Search(context.Background(), []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyBF))
	if err != nil {
		t.Fatal(err)
	}
	bfSet := make(map[dimatch.PersonID]bool)
	for _, r := range bf.PerQuery[1] {
		bfSet[r.Person] = true
	}
	// Everyone the WBF pipeline reported at a station must appear in BF's
	// candidate set (weights only prune); note WBF's final ranking also
	// deletes over-matchers, which BF cannot.
	for _, r := range wbf.PerQuery[1] {
		if !bfSet[r.Person] {
			t.Fatalf("person %d in WBF results but not BF candidates", r.Person)
		}
	}
	// Person 12 is reported by BF (each station piece matches the global
	// combination) but deleted by WBF: the baseline's false positive.
	if !bfSet[12] {
		t.Fatal("BF should report person 12; it cannot verify aggregates")
	}
}

func TestCommunicationOrdering(t *testing.T) {
	// Figure 4c's shape on a single scenario: WBF replies are (ID, weight)
	// tuples and BF replies bare IDs, both tiny against naive's full
	// shipment. Dissemination (the filter) dominates WBF's downlink, so
	// compare uplink traffic, which is what grows with data size.
	c := startCluster(t, testOptions(), paperScenario())
	q := []dimatch.Query{paperQuery()}

	naive, err := c.Search(context.Background(), q, dimatch.WithStrategy(dimatch.StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	wbf, err := c.Search(context.Background(), q, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	if wbf.Cost.BytesUp >= naive.Cost.BytesUp {
		t.Fatalf("WBF uplink %d >= naive uplink %d", wbf.Cost.BytesUp, naive.Cost.BytesUp)
	}
}

func TestSearchValidation(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	if _, err := c.Search(context.Background(), nil, dimatch.WithStrategy(dimatch.StrategyWBF)); err == nil {
		t.Fatal("empty query batch accepted")
	}
	if _, err := c.Search(context.Background(), []dimatch.Query{{ID: 1}}, dimatch.WithStrategy(dimatch.StrategyWBF)); err == nil {
		t.Fatal("invalid query accepted")
	}
	badLen := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2}}}
	if _, err := c.Search(context.Background(), []dimatch.Query{badLen}, dimatch.WithStrategy(dimatch.StrategyWBF)); err == nil {
		t.Fatal("length-mismatched query accepted")
	}
	if _, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.Strategy(99))); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := dimatch.NewCluster(dimatch.Options{}, 3); err == nil {
		t.Fatal("no stations accepted")
	}
	if _, err := dimatch.NewCluster(dimatch.Options{}, 0, dimatch.Member{ID: 1}); err == nil {
		t.Fatal("pattern length 0 accepted")
	}
	if _, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Member{ID: 1}, dimatch.Member{ID: 1}); !errors.Is(err, dimatch.ErrStationExists) {
		t.Fatalf("duplicate ids err = %v, want ErrStationExists", err)
	}
	mixed := []dimatch.Member{
		{ID: 0, Patterns: map[dimatch.PersonID]dimatch.Pattern{1: {1, 2}}},
		{ID: 1, Patterns: map[dimatch.PersonID]dimatch.Pattern{2: {1, 2, 3}}},
	}
	if _, err := dimatch.NewCluster(dimatch.Options{}, 3, mixed...); !errors.Is(err, dimatch.ErrLengthMismatch) {
		t.Fatalf("mixed pattern lengths err = %v, want ErrLengthMismatch", err)
	}
	center, _ := newTestPipe()
	linked := dimatch.Member{ID: 2, Link: center, Patterns: map[dimatch.PersonID]dimatch.Pattern{}}
	if _, err := dimatch.NewCluster(dimatch.Options{}, 3, linked); err == nil {
		t.Fatal("link member with seed patterns accepted")
	}
}

func TestKillStationDegradesGracefully(t *testing.T) {
	data := paperScenario()
	c := startCluster(t, testOptions(), data)
	if err := c.KillStation(1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillStation(1); err != nil {
		t.Fatal("second kill should be a no-op")
	}
	if err := c.KillStation(99); err == nil {
		t.Fatal("unknown station accepted")
	}
	out, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d, want 1", out.Cost.StationsFailed)
	}
	// Person 10's station-1 half is lost: they degrade to weight 1/2;
	// person 11 (whole pattern at station 2) is unaffected.
	for _, r := range out.PerQuery[1] {
		if r.Person == 10 && r.Score() == 1.0 {
			t.Fatal("person 10 should lose the dead station's weight")
		}
		if r.Person == 11 && r.Score() != 1.0 {
			t.Fatal("person 11 should be unaffected")
		}
	}
}

func TestTopKTruncation(t *testing.T) {
	opts := testOptions()
	opts.TopK = 1
	c := startCluster(t, opts, paperScenario())
	for _, strat := range []dimatch.Strategy{dimatch.StrategyWBF, dimatch.StrategyBF, dimatch.StrategyNaive} {
		out, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.PerQuery[1]) > 1 {
			t.Fatalf("%v returned %d results with TopK=1", strat, len(out.PerQuery[1]))
		}
	}
}

func TestEpsilonToleranceEndToEnd(t *testing.T) {
	opts := testOptions()
	opts.Params.Epsilon = 1
	// Position salting isolates the ε semantics from cross-position value
	// coincidences (the paper's unsalted scheme admits a few more
	// candidates; that difference is measured by the ablation bench).
	opts.Params.PositionSalted = true
	data := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {
			20: {1, 2, 3}, // exact local
			21: {2, 2, 3}, // within ε of local {1,2,3}
			22: {9, 2, 3}, // beyond even the accumulated ε band
		},
		1: {
			20: {2, 2, 2},
			21: {2, 2, 2},
		},
	}
	c := startCluster(t, opts, data)
	out, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[dimatch.PersonID]bool)
	for _, r := range out.PerQuery[1] {
		got[r.Person] = true
	}
	if !got[20] || !got[21] {
		t.Fatalf("ε-tolerant search missed true matches: %v", out.PerQuery[1])
	}
	if got[22] {
		t.Fatalf("person 22 beyond ε matched: %v", out.PerQuery[1])
	}
}

func TestMultiQuerySearch(t *testing.T) {
	data := paperScenario()
	c := startCluster(t, testOptions(), data)
	queries := []dimatch.Query{
		paperQuery(),
		{ID: 2, Locals: []dimatch.Pattern{{7, 1, 9}}}, // person 13's pattern
	}
	out, err := c.Search(context.Background(), queries, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery) != 2 {
		t.Fatalf("PerQuery has %d entries", len(out.PerQuery))
	}
	q2 := out.Persons(2)
	if len(q2) != 1 || q2[0] != 13 {
		t.Fatalf("query 2 results %v, want [13]", q2)
	}
	// Query 1 results unchanged by batching.
	foundTen := false
	for _, r := range out.PerQuery[1] {
		if r.Person == 13 {
			t.Fatal("query 1 contaminated by query 2's match")
		}
		if r.Person == 10 {
			foundTen = true
		}
	}
	if !foundTen {
		t.Fatal("query 1 lost person 10 when batched")
	}
}

func TestRepeatedSearches(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	for i := 0; i < 3; i++ {
		for _, strat := range []dimatch.Strategy{dimatch.StrategyWBF, dimatch.StrategyBF, dimatch.StrategyNaive} {
			if _, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(strat)); err != nil {
				t.Fatalf("round %d %v: %v", i, strat, err)
			}
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if dimatch.StrategyNaive.String() != "naive" || dimatch.StrategyBF.String() != "bf" || dimatch.StrategyWBF.String() != "wbf" {
		t.Fatal("strategy names wrong")
	}
	if dimatch.Strategy(9).String() == "" {
		t.Fatal("unknown strategy should render")
	}
}

func TestOracleValidation(t *testing.T) {
	if _, err := dimatch.Oracle(nil, dimatch.Query{}, 0, 0); err == nil {
		t.Fatal("invalid query accepted")
	}
}
