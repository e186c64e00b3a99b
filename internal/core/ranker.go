package core

import (
	"cmp"
	"fmt"
	"slices"
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
// An aggregation can span several filters, each report resolved against
// its own filter's weight table (AddFrom). The accumulation merges cleanly
// because a weight's meaning — this combination's share of this query's
// global sum — does not depend on which filter carried it.
//
// Credits are kept flat: AddFrom appends one (query, person, numerator)
// entry per query a report credits, and the first ranking after it sorts
// the entries by query and person and folds each pair's run into one entry,
// so the cost is a sort of the reports, not a map insertion per report.
type Aggregator struct {
	// cands[:folded] hold one entry per (query, person), ascending; the rest
	// are AddFrom's appends since the last fold.
	cands  []candidate
	folded int
	denoms map[QueryID]int64
	// lastQ and lastD are the last denominator written, to skip rewriting it
	// for every pointer of a run of reports on one query.
	lastQ QueryID
	lastD int64
	// replicated, when set, marks persons whose stations hold full copies of
	// one pattern rather than complementary pieces; see SetReplicated.
	replicated func(PersonID) bool
}

// candidate is one person's credit under one query: a report's (stations 1)
// or, folded, the sum of its reports'.
type candidate struct {
	query     QueryID
	stations  int32
	person    PersonID
	numerator int64
}

// NewBatchAggregator returns an empty aggregator. It holds no weight table:
// every report is resolved explicitly with AddFrom, so one aggregation can
// merge reports that probed different filters.
func NewBatchAggregator() *Aggregator {
	return &Aggregator{denoms: make(map[QueryID]int64)}
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
// summation model. The predicate is asked when a ranking folds a person
// reported more than once, so it must answer the same for a person
// throughout the aggregation.
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
		if len(a.denoms) == 0 || w.Query != a.lastQ || w.Denominator != a.lastD {
			a.denoms[w.Query], a.lastQ, a.lastD = w.Denominator, w.Query, w.Denominator
		}
	}
	for _, m := range minPerQuery {
		a.cands = append(a.cands, candidate{query: m.Query, stations: 1, person: r.Person, numerator: m.Numerator})
	}
	return nil
}

// fold sorts the entries appended since the last fold in with the folded
// ones and merges every (query, person) run into its first entry. Replicas
// report the same underlying pattern, so a replicated person's highest
// numerator wins and its station count is one copy's; summing them would
// push a true match past 1 and delete it under Algorithm 3.
func (a *Aggregator) fold() {
	if a.folded == len(a.cands) {
		return
	}
	c := a.cands
	slices.SortFunc(c, func(x, y candidate) int {
		if x.query != y.query {
			return cmp.Compare(x.query, y.query)
		}
		return cmp.Compare(x.person, y.person)
	})
	out := 0
	for i := 0; i < len(c); {
		acc, j := c[i], i+1
		if j < len(c) && c[j].query == acc.query && c[j].person == acc.person {
			dedup := a.replicated != nil && a.replicated(acc.person)
			for ; j < len(c) && c[j].query == acc.query && c[j].person == acc.person; j++ {
				if dedup {
					acc.numerator, acc.stations = max(acc.numerator, c[j].numerator), max(acc.stations, c[j].stations)
				} else {
					acc.numerator, acc.stations = acc.numerator+c[j].numerator, acc.stations+c[j].stations
				}
			}
		}
		c[out] = acc
		out++
		i = j
	}
	a.cands, a.folded = c[:out], out
}

// run returns query q's folded entries, person ascending.
func (a *Aggregator) run(q QueryID) []candidate {
	a.fold()
	lo, _ := slices.BinarySearchFunc(a.cands, q, func(c candidate, q QueryID) int { return cmp.Compare(c.query, q) })
	hi := lo
	for hi < len(a.cands) && a.cands[hi].query == q {
		hi++
	}
	return a.cands[lo:hi]
}

// result is c as a Result of a query with denominator denom.
func (c candidate) result(denom int64) Result {
	return Result{Person: c.person, Numerator: c.numerator, Denominator: denom, Stations: int(c.stations)}
}

// ranksAbove is TopK's order: weight descending, person ascending on ties.
func ranksAbove(x, y Result) bool {
	return x.Numerator > y.Numerator || x.Numerator == y.Numerator && x.Person < y.Person
}

// TopK finalizes one query with the paper's strict Algorithm 3: persons
// with weight sum exceeding the denominator are deleted, the rest are
// ranked by weight descending (person ID ascending on ties, for
// determinism) and the first k returned. k <= 0 means no limit. A bounded
// heap keeps the k best, so only they are sorted.
func (a *Aggregator) TopK(q QueryID, k int) []Result {
	run, denom := a.run(q), a.denoms[q]
	if k <= 0 || k > len(run) {
		k = len(run)
	}
	// heap is a min-heap under ranksAbove: heap[0] is the worst kept.
	heap := make([]Result, 0, k)
	for _, c := range run {
		if c.numerator > denom {
			continue // Algorithm 3 line 3: over-matched, aggregate differs
		}
		r := c.result(denom)
		switch {
		case len(heap) < k:
			heap = append(heap, r)
			for i := len(heap) - 1; i > 0 && ranksAbove(heap[(i-1)/2], heap[i]); i = (i - 1) / 2 {
				heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
			}
		case ranksAbove(r, heap[0]):
			heap[0] = r
			for i := 0; ; {
				least := i
				for _, ch := range [2]int{2*i + 1, 2*i + 2} {
					if ch < len(heap) && ranksAbove(heap[least], heap[ch]) {
						least = ch
					}
				}
				if least == i {
					break
				}
				heap[i], heap[least] = heap[least], heap[i]
				i = least
			}
		}
	}
	slices.SortFunc(heap, func(x, y Result) int {
		switch {
		case ranksAbove(x, y):
			return -1
		case ranksAbove(y, x):
			return 1
		}
		return 0
	})
	return heap
}

// Results returns every accumulated candidate for a query, unfiltered —
// including persons whose weight sum exceeds 1 — person ascending. Callers
// that tolerate ε-induced attribution error (a piece crediting the
// neighbouring combination) can band-filter around 1 instead of applying
// the strict deletion.
func (a *Aggregator) Results(q QueryID) []Result {
	run, denom := a.run(q), a.denoms[q]
	results := make([]Result, len(run))
	for i, c := range run {
		results[i] = c.result(denom)
	}
	return results
}

// Queries returns the query IDs that received at least one report, in
// ascending order.
func (a *Aggregator) Queries() []QueryID {
	a.fold()
	var out []QueryID
	for _, c := range a.cands {
		if len(out) == 0 || out[len(out)-1] != c.query {
			out = append(out, c.query)
		}
	}
	return out
}
