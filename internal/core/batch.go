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
// closest to their value sum per query (SelectClosestWeights).
//
// persons and locals are parallel, person-ID ascending — the station store's
// invariant. Residents whose pattern length differs from the filter's are
// skipped (a pattern from another time window cannot qualify).
//
// The walk is split across a bounded worker pool of min(workers, residents)
// goroutines — workers <= 0 means GOMAXPROCS — each with its own Matcher so
// probe scratch is never shared. This is a search round's station-side
// half: one batch query exchange triggers one parallel walk. Reports come back in person-ID order regardless of scheduling, so replies
// stay deterministic.
func MatchResidents(f *Filter, persons []PersonID, locals []pattern.Pattern, workers int) ([]Report, error) {
	if len(persons) != len(locals) {
		return nil, fmt.Errorf("core: %d persons but %d locals", len(persons), len(locals))
	}
	if len(persons) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(persons) {
		workers = len(persons)
	}
	if workers == 1 {
		return matchRange(f, persons, locals)
	}

	// Contiguous chunks keep each worker's output person-ascending; stitching
	// the chunks in order restores the global order without a sort.
	chunks := make([][]Report, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(persons) / workers
		hi := (w + 1) * len(persons) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			chunks[w], errs[w] = matchRange(f, persons[lo:hi], locals[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return slices.Concat(chunks...), nil
}

// matchRange is one worker's serial walk over a slice of the store; every
// report's pointers are a capped view into the walk's one arena.
func matchRange(f *Filter, persons []PersonID, locals []pattern.Pattern) ([]Report, error) {
	m := NewMatcher(f)
	var out []Report
	var arena []WeightID
	for i, local := range locals {
		if len(local) != f.Length() {
			continue
		}
		ids, ok, err := m.Match(local)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		lo := len(arena)
		if arena, err = SelectClosestWeights(arena, f, ids, local.Sum()); err != nil {
			return nil, err
		}
		out = append(out, Report{Person: persons[i], WeightIDs: arena[lo:len(arena):len(arena)]})
	}
	return out, nil
}
