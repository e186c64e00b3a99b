package core

import (
	"fmt"
	"slices"
	"sort"
)

// PersonID identifies an object (mobile phone) across the whole network.
type PersonID uint64

// Report is one base station's verdict for one person: the weight pointers
// that survived Algorithm 2 there. Stations send only (person, weights) —
// never the pattern itself — which is the source of the scheme's
// communication savings.
type Report struct {
	Person    PersonID
	WeightIDs []WeightID
}

// Result is one ranked answer for a query.
type Result struct {
	Person PersonID
	// Numerator and Denominator give the exact aggregated weight; a person
	// whose local matches partition the query's locals scores exactly 1.
	Numerator   int64
	Denominator int64
	// Stations is the number of base stations that reported the person. A
	// replicated person (see Aggregator.SetReplicated) counts the stations
	// of its winning copy only: 1 for a directly placed person.
	Stations int
}

// Score returns the aggregated weight as a float in (0, 1].
func (r Result) Score() float64 {
	if r.Denominator == 0 {
		return 0
	}
	return float64(r.Numerator) / float64(r.Denominator)
}

// Aggregator implements Algorithm 3 at the data center: it sums reported
// weights per person and query, deletes persons whose weight sum exceeds 1
// (their aggregate pattern must differ from the query's global), ranks the
// rest by weight descending and returns the top-K.
//
// An aggregation can span several filters: a search split into rounds
// resolves each round's replies against that round's combined weight table
// (AddFrom). The accumulation merges
// cleanly because a weight's meaning — this combination's share of this
// query's global sum — does not depend on which filter carried it.
type Aggregator struct {
	// perQuery[q][person] accumulates the weight numerator and the station
	// count for one person under query q.
	perQuery map[QueryID]map[PersonID]*personAgg
	denoms   map[QueryID]int64
	// replicated, when set, marks persons whose stations hold full copies of
	// one pattern rather than complementary pieces; see SetReplicated.
	replicated func(PersonID) bool
}

type personAgg struct {
	numerator int64
	stations  int
}

// NewBatchAggregator returns an empty aggregator. It holds no weight table:
// every report is resolved explicitly with AddFrom, so one aggregation can
// merge reports that probed different filters.
func NewBatchAggregator() *Aggregator {
	return &Aggregator{
		perQuery: make(map[QueryID]map[PersonID]*personAgg),
		denoms:   make(map[QueryID]int64),
	}
}

// SetReplicated marks which persons are replicated: their stations hold full
// copies of one pattern (a placement layer's replicas), not the
// complementary local pieces the paper's summation model assumes. For a
// replicated person, reports from different stations describe the same data,
// so their weights must not be summed — the aggregation keeps the single
// best (highest-numerator) report instead, and a replica that fails
// mid-fan-out is covered by any surviving replica at full score. Stations
// is the station count of one copy (the largest any report or partial
// carried), not the replicas that answered: a routed search visits one
// replica per group, a full fan-out every replica, and the two must rank
// identical Results. A nil predicate (the default) restores the pure
// summation model.
func (a *Aggregator) SetReplicated(pred func(PersonID) bool) {
	a.replicated = pred
}

// AddFrom ingests one station report, resolving its weight pointers against
// the given table — the table of whichever filter the reporting station
// probed. When several pointers of the same query survive for one station
// pattern (the pattern is within tolerance of more than one combination),
// the smallest numerator is credited: crediting more than the pattern's
// certain share could push a true match's sum past 1 and delete it, while
// under-crediting only lowers its rank.
func (a *Aggregator) AddFrom(table []WeightEntry, r Report) error {
	// minPerQuery holds each query's least-numerator entry: few, so a stack array.
	var stack [8]WeightEntry
	minPerQuery := stack[:0]
	for _, id := range r.WeightIDs {
		if int(id) >= len(table) {
			return fmt.Errorf("core: report for person %d has dangling weight pointer %d", r.Person, id)
		}
		w := table[id]
		switch i := slices.IndexFunc(minPerQuery, func(m WeightEntry) bool { return m.Query == w.Query }); {
		case i < 0:
			minPerQuery = append(minPerQuery, w)
		case w.Numerator < minPerQuery[i].Numerator:
			minPerQuery[i] = w
		}
		// Denominators are per query, not per filter — every table that
		// mentions a query agrees on its global sum.
		a.denoms[w.Query] = w.Denominator
	}
	dedup := a.replicated != nil && a.replicated(r.Person)
	for _, m := range minPerQuery {
		persons := a.perQuery[m.Query]
		if persons == nil {
			persons = make(map[PersonID]*personAgg)
			a.perQuery[m.Query] = persons
		}
		agg := persons[r.Person]
		if agg == nil {
			agg = &personAgg{}
			persons[r.Person] = agg
		}
		if dedup {
			// Replicas report the same underlying pattern: the highest score
			// wins, duplicates are not summed (which would push a true match
			// past 1 and delete it under Algorithm 3).
			agg.numerator = max(agg.numerator, m.Numerator)
			agg.stations = max(agg.stations, 1)
		} else {
			agg.numerator += m.Numerator
			agg.stations++
		}
	}
	return nil
}

// TopK finalizes one query with the paper's strict Algorithm 3: persons
// with weight sum exceeding the denominator are deleted, the rest are
// ranked by weight descending (person ID ascending on ties, for
// determinism) and the first k returned. k <= 0 means no limit.
func (a *Aggregator) TopK(q QueryID, k int) []Result {
	results := a.Results(q)
	kept := results[:0]
	for _, r := range results {
		if r.Numerator > r.Denominator {
			continue // Algorithm 3 line 3: over-matched, aggregate differs
		}
		kept = append(kept, r)
	}
	results = kept
	sort.Slice(results, func(i, j int) bool {
		if results[i].Numerator != results[j].Numerator {
			return results[i].Numerator > results[j].Numerator
		}
		return results[i].Person < results[j].Person
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

// Results returns every accumulated candidate for a query, unordered and
// unfiltered — including persons whose weight sum exceeds 1. Callers that
// tolerate ε-induced attribution error (a piece crediting the neighbouring
// combination) can band-filter around 1 instead of applying the strict
// deletion.
func (a *Aggregator) Results(q QueryID) []Result {
	denom := a.denoms[q]
	persons := a.perQuery[q]
	results := make([]Result, 0, len(persons))
	for p, agg := range persons {
		results = append(results, Result{
			Person:      p,
			Numerator:   agg.numerator,
			Denominator: denom,
			Stations:    agg.stations,
		})
	}
	return results
}

// Queries returns the query IDs that received at least one report, in
// ascending order.
func (a *Aggregator) Queries() []QueryID {
	out := make([]QueryID, 0, len(a.perQuery))
	for q := range a.perQuery {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
