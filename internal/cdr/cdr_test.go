package cdr

import (
	"testing"

	"dimatch/internal/pattern"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Persons = 60
	cfg.Stations = 36
	cfg.Days = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero persons", mutate: func(c *Config) { c.Persons = 0 }},
		{name: "zero stations", mutate: func(c *Config) { c.Stations = 0 }},
		{name: "zero days", mutate: func(c *Config) { c.Days = 0 }},
		{name: "zero intervals", mutate: func(c *Config) { c.IntervalsPerDay = 0 }},
		{name: "non-dividing intervals", mutate: func(c *Config) { c.IntervalsPerDay = 7 }},
		{name: "too many intervals", mutate: func(c *Config) { c.IntervalsPerDay = 2000 }},
		{name: "negative noise", mutate: func(c *Config) { c.Noise = -1 }},
		{name: "bad outlier rate", mutate: func(c *Config) { c.OutlierRate = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range Categories() {
		if c.String() == "" || c.String() == "Category(0)" {
			t.Fatalf("category %d has no name", c)
		}
	}
	if len(Categories()) != numCategories {
		t.Fatal("Categories() incomplete")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := testConfig()
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Persons) != len(d2.Persons) {
		t.Fatal("person counts differ")
	}
	for _, p := range d1.Persons {
		g1 := d1.GlobalOf(p.ID)
		g2 := d2.GlobalOf(p.ID)
		if !g1.Equal(g2) {
			t.Fatalf("person %d global differs across runs", p.ID)
		}
	}
	// A different seed must actually change the data.
	cfg.Seed = 999
	d3, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, p := range d1.Persons {
		if d1.GlobalOf(p.ID).Equal(d3.GlobalOf(p.ID)) {
			same++
		}
	}
	if same == len(d1.Persons) {
		t.Fatal("seed change did not alter the dataset")
	}
}

func TestRecordPipelineMatchesFastPath(t *testing.T) {
	// extract(synthesize(targets)) == targets. The fast path and
	// the record pipeline must produce identical datasets.
	cfg := testConfig()
	fast, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateRecords(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) == 0 {
		t.Fatal("no records generated")
	}
	extracted, err := Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	stations1 := fast.StationIDs()
	stations2 := extracted.StationIDs()
	if len(stations1) != len(stations2) {
		t.Fatalf("station counts differ: %d vs %d", len(stations1), len(stations2))
	}
	for _, s := range stations1 {
		l1 := fast.StationLocals(s)
		l2 := extracted.StationLocals(s)
		if len(l1) != len(l2) {
			t.Fatalf("station %d: %d vs %d persons", s, len(l1), len(l2))
		}
		for pid, p1 := range l1 {
			p2, ok := l2[pid]
			if !ok {
				t.Fatalf("station %d lost person %d", s, pid)
			}
			if !p1.Equal(p2) {
				t.Fatalf("station %d person %d: fast %v vs extracted %v", s, pid, p1, p2)
			}
		}
	}
}

func TestEveryPersonHasLocals(t *testing.T) {
	d, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Persons {
		locals := d.LocalsOf(p.ID)
		if len(locals) == 0 {
			t.Fatalf("person %d has no local patterns", p.ID)
		}
		if len(locals) > numRoles {
			t.Fatalf("person %d has %d locals, max %d roles", p.ID, len(locals), numRoles)
		}
		if d.GlobalOf(p.ID).Sum() == 0 {
			t.Fatalf("person %d has zero global activity", p.ID)
		}
		// Locals must sum to the global by construction.
		sum := make(pattern.Pattern, d.Length())
		for _, l := range locals {
			for i, v := range l {
				sum[i] += v
			}
		}
		if !sum.Equal(d.GlobalOf(p.ID)) {
			t.Fatalf("person %d: locals do not sum to global", p.ID)
		}
	}
}

func TestObservation1PeriodicityAndDivisibility(t *testing.T) {
	// Figure 1a / Figure 3: category curves repeat across weekdays, and the
	// accumulated category curves diverge from each other.
	cfg := testConfig()
	cfg.Persons = 120
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.IntervalsPerDay
	for _, c := range Categories() {
		mean := d.CategoryMean(c)
		// Periodicity: day-1 and day-2 profiles (both weekdays) are close.
		for i := 0; i < n; i++ {
			d1, d2 := mean[i], mean[n+i]
			if diff := d1 - d2; diff > 3 || diff < -3 {
				t.Fatalf("category %v not periodic at interval %d: %v vs %v", c, i, d1, d2)
			}
		}
	}
	// Divisibility: final accumulated values differ pairwise.
	finals := make(map[Category]float64)
	for _, c := range Categories() {
		mean := d.CategoryMean(c)
		var acc float64
		for _, v := range mean {
			acc += v
		}
		finals[c] = acc
	}
	cats := Categories()
	for i := 0; i < len(cats); i++ {
		for j := i + 1; j < len(cats); j++ {
			a, b := finals[cats[i]], finals[cats[j]]
			if diff := a - b; diff < 4 && diff > -4 {
				t.Fatalf("categories %v and %v accumulate too closely: %v vs %v", cats[i], cats[j], a, b)
			}
		}
	}
}

func TestObservation2WithinCategorySimilarity(t *testing.T) {
	// Within a category, non-outlier persons must have globally similar
	// patterns at a modest ε; and — statistically, per Figure 1b — over 90%
	// of similar-global pairs must share at least one similar local pattern.
	// (Not all: a person whose anchors collapse onto one station has a
	// single merged local that no single-role local resembles; the paper's
	// CDF likewise starts above zero at x=0.)
	cfg := testConfig()
	cfg.Persons = 120
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 4
	pairs, withSimilarLocal := 0, 0
	for _, c := range Categories() {
		ids := nonOutliers(d, c)
		if len(ids) < 2 {
			continue
		}
		ref := ids[0]
		refGlobal := d.GlobalOf(ref)
		refLocals := d.QueryLocalsOf(ref)
		for _, other := range ids[1:] {
			if !pattern.Similar(refGlobal, d.GlobalOf(other), eps) {
				t.Fatalf("category %v: persons %d and %d not globally similar at ε=%d:\n%v\n%v",
					c, ref, other, eps, refGlobal, d.GlobalOf(other))
			}
			pairs++
			for _, ol := range d.QueryLocalsOf(other) {
				found := false
				for _, rl := range refLocals {
					if pattern.Similar(ol, rl, eps) {
						found = true
						break
					}
				}
				if found {
					withSimilarLocal++
					break
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no similar-global pairs to evaluate")
	}
	if ratio := float64(withSimilarLocal) / float64(pairs); ratio < 0.9 {
		t.Fatalf("only %.0f%% of similar-global pairs share a similar local; paper observes > 90%%", ratio*100)
	}
}

func TestCrossCategoryDissimilarity(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 4
	cats := Categories()
	for i := 0; i < len(cats); i++ {
		idsA := nonOutliers(d, cats[i])
		if len(idsA) == 0 {
			continue
		}
		for j := i + 1; j < len(cats); j++ {
			idsB := nonOutliers(d, cats[j])
			if len(idsB) == 0 {
				continue
			}
			if pattern.Similar(d.GlobalOf(idsA[0]), d.GlobalOf(idsB[0]), eps) {
				t.Fatalf("categories %v and %v produce ε-similar globals", cats[i], cats[j])
			}
		}
	}
}

func nonOutliers(d *Dataset, c Category) []PersonID {
	var out []PersonID
	for _, p := range d.Persons {
		if p.Category == c && !p.Outlier {
			out = append(out, p.ID)
		}
	}
	return out
}

func TestDatasetAccessors(t *testing.T) {
	d, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.PersonByID(0)
	if err != nil || p.ID != 0 {
		t.Fatalf("PersonByID(0) = %+v, %v", p, err)
	}
	if _, err := d.PersonByID(PersonID(len(d.Persons) + 5)); err == nil {
		t.Fatal("expected ErrUnknownPerson")
	}
	total := 0
	for _, c := range Categories() {
		total += len(d.PersonsInCategory(c))
	}
	if total != len(d.Persons) {
		t.Fatalf("category partition covers %d of %d persons", total, len(d.Persons))
	}
	if len(d.StationIDs()) == 0 {
		t.Fatal("no active stations")
	}
	q := d.QueryLocalsOf(0)
	if len(q) == 0 {
		t.Fatal("query locals empty")
	}
}

func TestGenerateRejectsInvalidConfig(t *testing.T) {
	var cfg Config
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected error")
	}
	if _, err := GenerateRecords(cfg); err == nil {
		t.Fatal("expected error")
	}
}
