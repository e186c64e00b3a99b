package dimatch

import (
	"context"
	"testing"
)

// TestQuickstartFlow exercises the documented public-API path end to end:
// generate a city, stand up a cluster, search for customers similar to a
// reference person, score against ground truth.
func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 90
	cfg.Stations = 36
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(Options{
		// Position salting keeps ε bands per-slot (without it, the union of
		// scaled bands over a monotone accumulated series swallows every
		// small pattern); the paper's unsalted scheme is exercised at ε = 0
		// elsewhere.
		Params: Params{Samples: 8, Epsilon: 1, Seed: 42, PositionSalted: true},
		// A complete match partitions the query's locals and scores exactly
		// 1; the threshold keeps incidental partial matches out, playing
		// the role of the paper's top-K cut.
		MinScore: 0.9,
	}, city.Length(), Members(StationData(city))...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const ref = PersonID(0)
	query := QueryFromPerson(city, 1, ref)
	out, err := c.Search(context.Background(), []Query{query}, WithStrategy(StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}

	retrieved := out.Persons(1)
	if len(retrieved) == 0 {
		t.Fatal("search returned nothing")
	}
	relevant := RelevantSet(city, ref)
	// Exclude the reference person, who is trivially their own match.
	var others []PersonID
	for _, p := range retrieved {
		if p != ref {
			others = append(others, p)
		}
	}
	score := Evaluate(others, relevant)
	if score.Precision() < 0.9 {
		t.Fatalf("precision %.2f below 0.9: %+v", score.Precision(), score)
	}
	if score.Recall() < 0.9 {
		t.Fatalf("recall %.2f below 0.9: %+v", score.Recall(), score)
	}
}

func TestStrategiesAgreeOnTruePositives(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 60
	cfg.Stations = 25
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := StationData(city)
	c, err := NewCluster(Options{Params: Params{Samples: 8, Epsilon: 4, Seed: 7, PositionSalted: true}}, city.Length(), Members(data)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	query := QueryFromPerson(city, 1, 3)
	oracle, err := Oracle(data, query, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := c.Search(context.Background(), []Query{query}, WithStrategy(StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	got := naive.Persons(1)
	if len(got) != len(oracle) {
		t.Fatalf("naive %v != oracle %v", got, oracle)
	}
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("naive %v != oracle %v", got, oracle)
		}
	}

	// WBF must find every oracle answer (no false negatives under scaled
	// tolerance) as long as the answer's pieces align with the query split —
	// which the generator guarantees for same-category persons.
	wbf, err := c.Search(context.Background(), []Query{query}, WithStrategy(StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	wbfSet := make(map[PersonID]bool)
	for _, p := range wbf.Persons(1) {
		wbfSet[p] = true
	}
	missed := 0
	for _, p := range oracle {
		if !wbfSet[p] {
			missed++
		}
	}
	if missed > len(oracle)/10 {
		t.Fatalf("WBF missed %d of %d oracle answers", missed, len(oracle))
	}
}

func TestCostOrderingOnCity(t *testing.T) {
	// The headline efficiency claims on a realistic workload: WBF moves far
	// fewer bytes upstream than naive, and — the scaling behind Figure 4d —
	// naive center storage grows with the population while WBF's tracks the
	// query set, not the data.
	searchCosts := func(persons int) (naive, wbf CostReport) {
		cfg := DefaultCityConfig()
		cfg.Persons = persons
		city, err := GenerateCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(Options{
			Params:   Params{Samples: 8, Epsilon: 1, Seed: 7, PositionSalted: true},
			MinScore: 0.9,
		}, city.Length(), Members(StationData(city))...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		query := QueryFromPerson(city, 1, 0)
		n, err := c.Search(context.Background(), []Query{query}, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatal(err)
		}
		w, err := c.Search(context.Background(), []Query{query}, WithStrategy(StrategyWBF))
		if err != nil {
			t.Fatal(err)
		}
		return n.Cost, w.Cost
	}

	naiveSmall, wbfSmall := searchCosts(60)
	naiveBig, wbfBig := searchCosts(240)

	if wbfBig.BytesUp*3 > naiveBig.BytesUp {
		t.Fatalf("WBF uplink %d not well below naive uplink %d", wbfBig.BytesUp, naiveBig.BytesUp)
	}
	// Naive center storage scales with the population; WBF's is dominated
	// by the filter and barely moves.
	if naiveBig.CenterStorageBytes < naiveSmall.CenterStorageBytes*3 {
		t.Fatalf("naive storage did not scale with data: %d -> %d", naiveSmall.CenterStorageBytes, naiveBig.CenterStorageBytes)
	}
	if wbfBig.CenterStorageBytes > wbfSmall.CenterStorageBytes*3/2 {
		t.Fatalf("WBF storage scaled with data: %d -> %d", wbfSmall.CenterStorageBytes, wbfBig.CenterStorageBytes)
	}
}

func TestPublicHelpers(t *testing.T) {
	if !Similar(Pattern{1, 2}, Pattern{2, 3}, 1) {
		t.Fatal("Similar within eps failed")
	}
	if Similar(Pattern{1, 2}, Pattern{3, 2}, 1) {
		t.Fatal("Similar beyond eps passed")
	}
	acc := Pattern{1, 2, 3}.Accumulate()
	if !acc.Equal(Pattern{1, 3, 6}) {
		t.Fatalf("Accumulate = %v", acc)
	}
	if len(Categories()) != 6 {
		t.Fatal("six categories expected")
	}
	if DefaultSamples != 12 {
		t.Fatal("paper's b is 12")
	}
}

func TestRecordPathThroughPublicAPI(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 30
	cfg.Stations = 16
	rs, err := GenerateCityRecords(cfg)
	if err != nil {
		t.Fatal(err)
	}
	city, err := ExtractCity(rs)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range city.Persons {
		if !city.GlobalOf(p.ID).Equal(fast.GlobalOf(p.ID)) {
			t.Fatalf("record and fast paths disagree for person %d", p.ID)
		}
	}
}

func TestRelevantSetExcludesSelfAndUnknown(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 30
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := RelevantSet(city, 0)
	for _, p := range rel {
		if p == 0 {
			t.Fatal("relevant set contains the reference person")
		}
	}
	if RelevantSet(city, PersonID(9999)) != nil {
		t.Fatal("unknown person should have nil relevant set")
	}
}
