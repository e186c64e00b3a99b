package core

import (
	"math/bits"
	"runtime"
	"slices"
)

// stateTable is the transition table a walk runs on. A state is an interned,
// ascending WeightID set: the pointers every bit probed so far agrees on. A
// set bit's dictionary code moves a row from one state to the next, and the
// table remembers each (state, code) step it has taken, so a walk intersects
// each distinct pair once however many residents repeat it. From the start
// state a code leads to its own dictionary list; a step whose intersection is
// empty leads to reject.
//
// States live in one arena, interned by content in an open-addressed table;
// steps live in another open-addressed table. Both tables stamp their slots
// with a generation, so clearing the table is one increment and a warm table
// allocates nothing. A table serves one filter: reset binds it to the next.
// A table is not safe for concurrent use.
type stateTable struct {
	gen    uint32      // the live slots' stamp; bumped to clear
	steps  []stepSlot  // open-addressed (state, code) → next state
	nsteps int         // live steps
	states []stateSpan // state s is arena[states[s].off:][:states[s].n]; 0 is start
	intern []internSlot
	arena  []WeightID
}

// stepSlot is one remembered step: from, on code, leads to to. It is live
// when its gen is the table's.
type stepSlot struct {
	from, code, to, gen uint32
}

// stateSpan is one state's set in the arena, with its content hash.
type stateSpan struct {
	off, n uint32
	hash   uint64
}

// internSlot names the state holding one content, live when gen is the
// table's.
type internSlot struct {
	state, gen uint32
}

const (
	stateStart  = 0                  // the state before any bit: every pointer
	stateReject = ^uint32(0)         // the state after an empty intersection or an unset bit
	golden      = 0x9e3779b97f4a7c15 // multiplier of the tables' Fibonacci hashing
)

// tableCap bounds the steps a table remembers, and 16 × tableCap the
// pointers its arena holds. A walk clears a table past either at the next row
// boundary, so a row's states stay valid while it is probed and no second
// walk path runs beside the table. Tests lower it to force clears mid-walk.
var tableCap = 4096

// tables is the process-wide pool that lends walks their transition tables
// for the duration of a walk, so the process holds about one table per walk
// in progress, not one per walker of every station. It is a bounded free
// list rather than a sync.Pool so that a warm walk allocates nothing even
// after a collection, which empties a sync.Pool, or under the race
// detector, which drops a quarter of what is put in one. Twice the
// processors: each runs one walk at a time and may hold the table of one it
// preempted; a table handed back past that is dropped.
var tables = make(chan *stateTable, 2*runtime.GOMAXPROCS(0))

// borrowTable takes a table from the pool, or makes one when it is empty.
func borrowTable() *stateTable {
	select {
	case t := <-tables:
		return t
	default:
		return new(stateTable)
	}
}

// returnTable hands t back to the pool, or drops it when the pool is full.
func returnTable(t *stateTable) {
	select {
	case tables <- t:
	default:
	}
}

// reset empties t, for a new filter (whose codes name another dictionary)
// or past its cap. A warm table keeps its grown slices.
func (t *stateTable) reset() {
	if t.gen++; t.gen == 0 {
		// The stamp wrapped: slots stamped long ago would read as live.
		clear(t.steps)
		clear(t.intern)
		t.gen = 1
	}
	if t.steps == nil {
		t.steps, t.intern = make([]stepSlot, 64), make([]internSlot, 64)
	}
	t.nsteps, t.states, t.arena = 0, append(t.states[:0], stateSpan{}), t.arena[:0]
}

// full reports whether t holds more than tableCap steps or 16 × tableCap
// pointers.
func (t *stateTable) full() bool {
	return t.nsteps > tableCap || len(t.arena) > 16*tableCap
}

// set returns state s's pointers, valid until t is reset.
func (t *stateTable) set(s uint32) []WeightID {
	sp := t.states[s]
	return t.arena[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// walk runs a row's sampled accumulated values through t, last slot first,
// and returns the state the row ends in: its weight pointers, or reject.
// Intersection commutes, so the order decides neither rejection nor the
// final set; the last slots reject most rows, so they go first.
//
// Allocation-free on a warm table: alloc_pin_test.go holds it to 0
// allocs/op.
func (t *stateTable) walk(f *Filter, vals []int64) uint32 {
	s := uint32(stateStart)
	for slot := len(vals) - 1; slot >= 0 && s != stateReject; slot-- {
		s = t.probe(f, s, slot, vals[slot])
	}
	return s
}

// probe moves state s across the k bits one sampled value hashes to.
func (t *stateTable) probe(f *Filter, s uint32, slot int, value int64) uint32 {
	h, step := f.family.Base(f.keys.key(slot, value))
	for j := 0; j < f.family.K(); j, h = j+1, h+step {
		code, ok := f.code(f.family.Reduce(h))
		if !ok {
			return stateReject
		}
		if s = t.next(f, s, code); s == stateReject {
			return stateReject
		}
	}
	return s
}

// next returns the state s moves to on a bit of the given code, taking the
// step (one intersection) the first time t sees the pair.
func (t *stateTable) next(f *Filter, s, code uint32) uint32 {
	mask := len(t.steps) - 1
	for i := stepHash(s, code) >> (64 - bits.Len(uint(mask))) & uint64(mask); ; i = (i + 1) & uint64(mask) {
		e := &t.steps[i]
		if e.gen != t.gen {
			to := t.step(f, s, code)
			*e = stepSlot{from: s, code: code, to: to, gen: t.gen}
			if t.nsteps++; 4*t.nsteps > 3*len(t.steps) {
				t.growSteps()
			}
			return to
		}
		if e.from == s && e.code == code {
			return e.to
		}
	}
}

func stepHash(s, code uint32) uint64 { return (uint64(s)<<32 | uint64(code)) * golden }

// step intersects state s with dictionary list code into the arena's tail and
// interns the result.
func (t *stateTable) step(f *Filter, s, code uint32) uint32 {
	list := f.ids[f.offs[code]:f.offs[code+1]]
	lo := len(t.arena)
	if s == stateStart {
		t.arena = append(t.arena, list...)
	} else {
		from := t.set(s)
		t.arena = append(t.arena, from...)
		n := len(intersectSorted(t.arena[lo:], list))
		t.arena = t.arena[:lo+n]
		if n == len(from) { // the list holds all of s: no move
			t.arena = t.arena[:lo]
			return s
		}
	}
	if len(t.arena) == lo {
		return stateReject
	}
	return t.internTail(lo)
}

// internTail returns the state holding arena[lo:], which it makes a new state
// unless one holds the same pointers already (then the tail is dropped).
func (t *stateTable) internTail(lo int) uint32 {
	set := t.arena[lo:]
	h := uint64(len(set))
	for _, id := range set {
		h = (h ^ uint64(id)) * golden
	}
	mask := uint64(len(t.intern) - 1)
	for i := h >> (64 - bits.Len(uint(mask))) & mask; ; i = (i + 1) & mask {
		e := &t.intern[i]
		if e.gen != t.gen {
			s := uint32(len(t.states))
			*e = internSlot{state: s, gen: t.gen}
			t.states = append(t.states, stateSpan{off: uint32(lo), n: uint32(len(set)), hash: h})
			if 4*len(t.states) > 3*len(t.intern) {
				t.growIntern()
			}
			return s
		}
		if sp := t.states[e.state]; sp.hash == h && slices.Equal(t.set(e.state), set) {
			t.arena = t.arena[:lo]
			return e.state
		}
	}
}

// growSteps doubles the step table and re-inserts its live steps.
func (t *stateTable) growSteps() {
	old := t.steps
	t.steps = make([]stepSlot, 2*len(old))
	mask := uint64(len(t.steps) - 1)
	for _, e := range old {
		if e.gen != t.gen {
			continue
		}
		i := stepHash(e.from, e.code) >> (64 - bits.Len(uint(mask))) & mask
		for t.steps[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.steps[i] = e
	}
}

// growIntern doubles the intern table and re-inserts every state but start.
func (t *stateTable) growIntern() {
	t.intern = make([]internSlot, 2*len(t.intern))
	mask := uint64(len(t.intern) - 1)
	for s := 1; s < len(t.states); s++ {
		i := t.states[s].hash >> (64 - bits.Len(uint(mask))) & mask
		for t.intern[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.intern[i] = internSlot{state: uint32(s), gen: t.gen}
	}
}
