package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"dimatch/internal/pattern"
)

// MatchResidents runs Algorithm 2 plus weight attribution over a station's
// whole resident store in one walk: every local pattern is probed against
// the filter, and qualifying residents are reported with the weight pointer
// closest to their value sum per query (SelectClosestWeights). It is
// WalkMatch on a fresh Walk.
//
// persons and locals are parallel, person-ID ascending — the station store's
// invariant. locals are rows of either cell type: a station walks its int32
// store, tests and tools walk Patterns, through the same code. Residents
// whose pattern length differs from the filter's are skipped (a pattern
// from another time window cannot qualify).
//
// The walk is split across a bounded worker pool of min(workers, residents)
// goroutines — workers <= 0 means GOMAXPROCS — each with its own Matcher so
// probe scratch is never shared. This is a search round's station-side
// half: one batch query exchange triggers one parallel walk. Reports come
// back in person-ID order regardless of scheduling, so replies stay
// deterministic.
func MatchResidents[R pattern.Row[C], C pattern.Cell](f *Filter, persons []PersonID, locals []R, workers int) ([]Report, error) {
	var w Walk
	return WalkMatch(&w, f, persons, locals, workers)
}

// Walk is MatchResidents' scratch, kept for the next walk: per worker a warm
// Matcher, its hits and its pointer arena, and the reports stitched from
// every worker's hits. Each worker's Matcher borrows a transition table from
// a process-wide pool for the walk's duration and hands it back at the end,
// so the tables cost one per walk in progress, not one per Walk. A station
// keeps one Walk across its search rounds, so a warm walk allocates only
// for its worker goroutines. It holds each report
// once, whatever the worker count, plus 8 bytes of hit per report and the
// reports' pointers (Bytes); WalkMatch's result is the Walk's own and is
// valid until the next walk. A Walk is not safe for concurrent use.
type Walk struct {
	workers []walker
	reports []Report
}

// walker is one worker's share of a Walk.
type walker struct {
	m     Matcher
	hits  []hit
	arena []WeightID
	err   error
}

// hit is one qualifying resident of a worker's chunk: its index in the
// chunk and the end of its pointers in the worker's arena (they start where
// the previous hit's end). A Report is three words; a hit is one, so a
// worker's output costs a quarter of the reports it becomes.
type hit struct {
	resident, end uint32
}

// WalkMatch is MatchResidents into w's buffers.
func WalkMatch[R pattern.Row[C], C pattern.Cell](w *Walk, f *Filter, persons []PersonID, locals []R, workers int) ([]Report, error) {
	if len(persons) != len(locals) {
		return nil, fmt.Errorf("core: %d persons but %d locals", len(persons), len(locals))
	}
	if len(persons) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(persons))
	if len(w.workers) < workers {
		w.workers = append(w.workers, make([]walker, workers-len(w.workers))...)
	}
	// Contiguous chunks keep each worker's hits person-ascending; stitching
	// the chunks in order restores the global order without a sort. The
	// first chunk is walked on the caller's goroutine.
	chunk := func(k int) (int, int) { return k * len(persons) / workers, (k + 1) * len(persons) / workers }
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		lo, hi := chunk(k)
		wg.Add(1)
		go func(wk *walker) {
			defer wg.Done()
			matchRange(wk, f, locals[lo:hi])
		}(&w.workers[k])
	}
	lo, hi := chunk(0)
	matchRange(&w.workers[0], f, locals[lo:hi])
	wg.Wait()
	total := 0
	for k := range w.workers[:workers] {
		if err := w.workers[k].err; err != nil {
			return nil, err
		}
		total += len(w.workers[k].hits)
	}
	w.reports = slices.Grow(w.reports[:0], total)
	for k := range w.workers[:workers] {
		wk, lo := &w.workers[k], k*len(persons)/workers // chunk(k)'s start
		start := uint32(0)
		for _, h := range wk.hits {
			w.reports = append(w.reports, Report{Person: persons[lo+int(h.resident)], WeightIDs: wk.arena[start:h.end:h.end]})
			start = h.end
		}
	}
	return w.reports, nil
}

// Bytes returns the capacity w holds between walks, in bytes: its reports,
// its hits, its arenas and its matchers' sampled values. The matchers'
// transition tables are the pool's between walks, not w's.
func (w *Walk) Bytes() int {
	const report = 32 // a Report's size
	n := report * cap(w.reports)
	for _, wk := range w.workers {
		n += 8*cap(wk.hits) + 4*cap(wk.arena) + 8*cap(wk.m.valBuf)
	}
	return n
}

// matchRange is one worker's serial walk over a chunk of the store into its
// hits and their pointer arena, on a transition table borrowed from the pool.
func matchRange[R pattern.Row[C], C pattern.Cell](wk *walker, f *Filter, locals []R) {
	wk.m.table = borrowTable()
	defer func() {
		returnTable(wk.m.table)
		wk.m.table = nil
	}()
	wk.m.reset(f)
	wk.hits, wk.arena, wk.err = wk.hits[:0], wk.arena[:0], nil
	for i, local := range locals {
		if len(local) != f.Length() {
			continue
		}
		ids, ok, err := matchRow(&wk.m, local)
		if err != nil {
			wk.err = err
			return
		}
		if !ok {
			continue
		}
		if wk.arena, err = SelectClosestWeights(wk.arena, f, ids, pattern.RowSum(local)); err != nil {
			wk.err = err
			return
		}
		wk.hits = append(wk.hits, hit{resident: uint32(i), end: uint32(len(wk.arena))})
	}
}
