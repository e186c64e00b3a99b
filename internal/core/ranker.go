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
// An aggregation holds one entry per report: its person and where its
// resolved credit list — one least numerator per query it credits — sits in
// a shared buffer. A station's reply carries one pointer list for a run of
// persons, so a list is resolved once per run, not once per report. The
// first ranking after an AddFrom sorts the entries by person once and folds
// every query's sums from them, so the cost is a sort of the reports, not
// a map insertion or an entry per credited query. Reset empties an
// aggregation for the next one and keeps every buffer.
type Aggregator struct {
	// entries hold one entry per report, person ascending up to the last
	// fold, then AddFrom's appends; dirty is set while any are unfolded.
	entries []entry
	dirty   bool
	// credits holds every resolved pointer list back to back.
	credits []credit
	// slots numbers the queries seen, in order of first sight, into queries.
	slots   map[QueryID]uint32
	queries []querySlot
	// cands holds the last fold's candidates, query slot by slot, each
	// slot's person ascending.
	cands []candidate
	// table and ids are the last resolved list's weight table and a copy of
	// its pointers — a caller's reply buffer is overwritten between replies,
	// so a run is recognised by contents, not by slice — and at, n its
	// credits. Before any list resolves they stand for the empty list.
	table []WeightEntry
	ids   []WeightID
	at, n uint32
	// replicated, when set, marks persons whose stations hold full copies of
	// one pattern rather than complementary pieces; see SetReplicated.
	replicated func(PersonID) bool
}

// querySlot is one query of the aggregation: its denominator and its
// folded candidates, cands[lo:hi]. mark is the fold's scratch.
type querySlot struct {
	denom  int64
	lo, hi int
	mark   int
}

// entry is one report: its person and its credit list, credits[at:at+n].
type entry struct {
	person PersonID
	at, n  uint32
}

// credit is one query's least numerator in a report's pointer list.
type credit struct {
	slot      uint32
	numerator int64
}

// candidate is one person's credit under one query: the sum of its
// reports' (or, replicated, the best one).
type candidate struct {
	person    PersonID
	numerator int64
	stations  int32
}

// NewBatchAggregator returns an empty aggregator. It holds no weight table:
// every report is resolved explicitly with AddFrom, so one aggregation can
// merge reports that probed different filters.
func NewBatchAggregator() *Aggregator {
	return &Aggregator{slots: make(map[QueryID]uint32)}
}

// Reset empties the aggregation and forgets the replicated predicate and
// the last weight table, keeping every buffer's capacity for the next.
func (a *Aggregator) Reset() {
	a.entries, a.dirty, a.credits = a.entries[:0], false, a.credits[:0]
	clear(a.slots)
	a.queries, a.cands = a.queries[:0], a.cands[:0]
	a.table, a.ids, a.at, a.n = nil, a.ids[:0], 0, 0
	a.replicated = nil
}

// SetReplicated marks which persons are replicated: their stations hold full
// copies of one pattern (a placement layer's replicas), not the
// complementary local pieces the paper's summation model assumes. For a
// replicated person, reports from different stations describe the same data,
// so their weights must not be summed — the aggregation keeps the single
// best (highest-numerator) report instead, and a replica that fails
// mid-fan-out is covered by any surviving replica at full score. Stations
// is the station count of one copy (1), not the replicas that answered: a
// routed search visits one replica per group, a full fan-out every replica,
// and the two must rank identical Results. A nil predicate (the default)
// restores the pure summation model. The predicate is asked when a ranking
// folds a person reported more than once, so it must answer the same for a
// person throughout the aggregation.
func (a *Aggregator) SetReplicated(pred func(PersonID) bool) {
	a.replicated = pred
}

// AddFrom ingests one station report, resolving its weight pointers against
// the given table — the table of whichever filter the reporting station
// probed. When several pointers of the same query survive for one station
// pattern (the pattern is within tolerance of more than one combination),
// the smallest numerator is credited: crediting more than the pattern's
// certain share could push a true match's sum past 1 and delete it, while
// under-crediting only lowers its rank. A report whose table and pointers
// equal the previous report's reuses its resolution, so a table must not
// change in place while an aggregation resolves against it. Results and TopK
// do not depend on the order the reports, or the stations' replies, arrive in.
func (a *Aggregator) AddFrom(table []WeightEntry, r Report) error {
	if !sameTable(table, a.table) || !slices.Equal(r.WeightIDs, a.ids) {
		if err := a.resolve(table, r); err != nil {
			return err
		}
	}
	if a.n > 0 {
		if len(a.entries) == cap(a.entries) {
			// Double: append's gentler growth past 256 entries would copy
			// a large aggregation's entries several times over.
			grown := make([]entry, len(a.entries), max(2*len(a.entries), 256))
			a.entries = grown[:copy(grown, a.entries)]
		}
		a.entries = append(a.entries, entry{person: r.Person, at: a.at, n: a.n})
		a.dirty = true
	}
	return nil
}

// sameTable reports whether x and y are one slice.
func sameTable(x, y []WeightEntry) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// resolve appends r's credit list — each query's least numerator among its
// pointers — and makes it the list the next reports are compared with.
func (a *Aggregator) resolve(table []WeightEntry, r Report) error {
	for _, id := range r.WeightIDs {
		if int(id) >= len(table) {
			return fmt.Errorf("core: report for person %d has dangling weight pointer %d", r.Person, id)
		}
	}
	at := len(a.credits)
	for _, id := range r.WeightIDs {
		w := table[id]
		s := a.slot(w.Query)
		// Denominators are per query, not per filter — every table that
		// mentions a query agrees on its global sum.
		a.queries[s].denom = w.Denominator
		switch i := slices.IndexFunc(a.credits[at:], func(c credit) bool { return c.slot == s }); {
		case i < 0:
			a.credits = append(a.credits, credit{slot: s, numerator: w.Numerator})
		case w.Numerator < a.credits[at+i].numerator:
			a.credits[at+i].numerator = w.Numerator
		}
	}
	a.table, a.ids = table, append(a.ids[:0], r.WeightIDs...)
	a.at, a.n = uint32(at), uint32(len(a.credits)-at)
	return nil
}

// slot returns q's slot, numbering it on first sight.
func (a *Aggregator) slot(q QueryID) uint32 {
	s, ok := a.slots[q]
	if !ok {
		s = uint32(len(a.queries))
		a.slots[q] = s
		a.queries = append(a.queries, querySlot{})
	}
	return s
}

// fold sorts the entries by person and rebuilds every query's candidates
// from them in two passes over the credits: the first counts each query's
// persons, so the candidates fill one exactly sized buffer, and the second
// folds them. A person's entries are adjacent, so each query's candidates
// come out person ascending and a person's credit merges into the last
// one. Replicas report the same underlying pattern, so a replicated
// person's highest numerator wins and its station count stays one copy's;
// summing them would push a true match past 1 and delete it under
// Algorithm 3.
func (a *Aggregator) fold() {
	if !a.dirty {
		return
	}
	a.dirty = false
	e, qs := a.entries, a.queries
	slices.SortFunc(e, func(x, y entry) int { return cmp.Compare(x.person, y.person) })
	for s := range qs {
		qs[s].hi, qs[s].mark = 0, -1
	}
	for i, j := 0, 0; i < len(e); i = j {
		j = personEnd(e, i)
		for _, x := range e[i:j] {
			for _, c := range a.credits[x.at : x.at+x.n] {
				if q := &qs[c.slot]; q.mark != i {
					q.mark, q.hi = i, q.hi+1
				}
			}
		}
	}
	total := 0
	for s := range qs {
		qs[s].lo, qs[s].hi, total = total, total, total+qs[s].hi
	}
	if cap(a.cands) < total {
		a.cands = make([]candidate, total)
	}
	a.cands = a.cands[:total]
	for i, j := 0, 0; i < len(e); i = j {
		p := e[i].person
		j = personEnd(e, i)
		dedup := j-i > 1 && a.replicated != nil && a.replicated(p)
		for _, x := range e[i:j] {
			for _, c := range a.credits[x.at : x.at+x.n] {
				q := &qs[c.slot]
				if q.hi == q.lo || a.cands[q.hi-1].person != p {
					a.cands[q.hi] = candidate{person: p, numerator: c.numerator, stations: 1}
					q.hi++
					continue
				}
				if last := &a.cands[q.hi-1]; dedup {
					last.numerator = max(last.numerator, c.numerator)
				} else {
					last.numerator += c.numerator
					last.stations++
				}
			}
		}
	}
}

// personEnd returns the end of the run of entries from e[i] on that share
// its person.
func personEnd(e []entry, i int) int {
	j := i + 1
	for j < len(e) && e[j].person == e[i].person {
		j++
	}
	return j
}

// run returns query q's folded candidates, person ascending, and its
// denominator.
func (a *Aggregator) run(q QueryID) ([]candidate, int64) {
	a.fold()
	s, ok := a.slots[q]
	if !ok {
		return nil, 0
	}
	qs := a.queries[s]
	return a.cands[qs.lo:qs.hi], qs.denom
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
	run, denom := a.run(q)
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
	run, denom := a.run(q)
	results := make([]Result, len(run))
	for i, c := range run {
		results[i] = c.result(denom)
	}
	return results
}
