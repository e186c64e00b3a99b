package core

import (
	"fmt"
	"runtime"
	"sync"

	"dimatch/internal/pattern"
)

// MatchResidents runs Algorithm 2 plus weight attribution over a station's
// whole resident store in one walk: every local pattern is probed against
// the filter, and qualifying residents are reported with the weight pointer
// closest to their value sum per query (SelectClosestWeights). It is
// Walk.Match on a fresh Walk.
//
// persons and locals are parallel, person-ID ascending — the station store's
// invariant. Residents whose pattern length differs from the filter's are
// skipped (a pattern from another time window cannot qualify).
//
// The walk is split across a bounded worker pool of min(workers, residents)
// goroutines — workers <= 0 means GOMAXPROCS — each with its own Matcher so
// probe scratch is never shared. This is a search round's station-side
// half: one batch query exchange triggers one parallel walk. Reports come
// back in person-ID order regardless of scheduling, so replies stay
// deterministic.
func MatchResidents(f *Filter, persons []PersonID, locals []pattern.Pattern, workers int) ([]Report, error) {
	var w Walk
	return w.Match(f, persons, locals, workers)
}

// Walk is MatchResidents' scratch, kept for the next walk: per worker a warm
// Matcher, its reports and its pointer arena, and the reports stitched from
// the workers'. A station keeps one across its search rounds, so a warm walk
// allocates only for its worker goroutines. It holds one report per resident
// its largest walk reported and those reports' pointers (Bytes); Match's
// result is the Walk's own and is valid until the next Match. A Walk is not
// safe for concurrent use.
type Walk struct {
	workers []walker
	reports []Report
}

// walker is one worker's share of a Walk.
type walker struct {
	m     Matcher
	out   []Report
	arena []WeightID
	err   error
}

// Match is MatchResidents into w's buffers.
func (w *Walk) Match(f *Filter, persons []PersonID, locals []pattern.Pattern, workers int) ([]Report, error) {
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
	// Contiguous chunks keep each worker's output person-ascending; stitching
	// the chunks in order restores the global order without a sort. The
	// first chunk is walked on the caller's goroutine.
	chunk := func(k int) (int, int) { return k * len(persons) / workers, (k + 1) * len(persons) / workers }
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		lo, hi := chunk(k)
		wg.Add(1)
		go func(wk *walker) {
			defer wg.Done()
			wk.matchRange(f, persons[lo:hi], locals[lo:hi])
		}(&w.workers[k])
	}
	lo, hi := chunk(0)
	w.workers[0].matchRange(f, persons[lo:hi], locals[lo:hi])
	wg.Wait()
	for k := range w.workers[:workers] {
		if err := w.workers[k].err; err != nil {
			return nil, err
		}
	}
	if workers == 1 {
		return w.workers[0].out, nil
	}
	w.reports = w.reports[:0]
	for k := range w.workers[:workers] {
		w.reports = append(w.reports, w.workers[k].out...)
	}
	return w.reports, nil
}

// Bytes returns the capacity w holds between walks, in bytes: its reports,
// its arenas and its matchers' scratch.
func (w *Walk) Bytes() int {
	const report = 32 // a Report's size
	n := report * cap(w.reports)
	for _, wk := range w.workers {
		n += report*cap(wk.out) + 4*(cap(wk.arena)+cap(wk.m.current)+cap(wk.m.probeBuf)) + 8*cap(wk.m.valBuf)
	}
	return n
}

// matchRange is one worker's serial walk over a slice of the store into its
// reports; every report's pointers are a capped view into its one arena.
func (wk *walker) matchRange(f *Filter, persons []PersonID, locals []pattern.Pattern) {
	wk.m.reset(f)
	wk.out, wk.arena, wk.err = wk.out[:0], wk.arena[:0], nil
	for i, local := range locals {
		if len(local) != f.Length() {
			continue
		}
		ids, ok, err := wk.m.Match(local)
		if err != nil {
			wk.err = err
			return
		}
		if !ok {
			continue
		}
		lo := len(wk.arena)
		if wk.arena, err = SelectClosestWeights(wk.arena, f, ids, local.Sum()); err != nil {
			wk.err = err
			return
		}
		wk.out = append(wk.out, Report{Person: persons[i], WeightIDs: wk.arena[lo:len(wk.arena):len(wk.arena)]})
	}
}
