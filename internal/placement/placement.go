// Package placement assigns patterns to base stations and tracks the
// coordinator's placement intents.
//
// A person's replica set is chained (chained declustering, Hsiao & DeWitt):
// its primary is the station that wins the rendezvous
// (highest-random-weight, HRW) hash of (person, station), and the other
// R−1 replicas are the primary's successors in ascending station-ID order,
// wrapping around the ring. Every coordinator computes identical sets from
// the membership list alone, and the sets form S overlapping replica groups
// of R consecutive stations — the structure a routed search exploits to
// visit one member per group (see the cluster's planRoute). The price is
// disruption: removing a station moves only the sets it was in (every
// surviving primary keeps its place), but a person whose primary died moves
// all R copies, so a kill copies about (2R−1)/S of the placed persons where
// pure HRW copied R/S (3/S against 2/S at R=2). Bloofi (Crainiceanu &
// Lemire) motivates the coordinator-side per-station summaries routing
// probes; "The Distributed Bloom Filter" (Ramabaja & Avdullahu) motivates
// keeping replicated filter state eventually consistent, which the
// cluster's reconciliation loop implements on top of these primitives.
package placement

import (
	"slices"
	"sort"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/hash"
	"dimatch/internal/pattern"
)

// stationSalt decorrelates the station-ID mix from the person-ID mix, so a
// person whose ID collides numerically with a station ID still scores
// independently.
const stationSalt = 0x5bd1e995c3a90000

// Score returns the rendezvous weight of placing person p on the given
// station. Higher wins. Both sides of the pair pass through the splitmix64
// finalizer, so the scores of one person across stations — and of one
// station across persons — are well distributed.
func Score(p core.PersonID, station uint32) uint64 {
	return saltedScore(p, salt(station))
}

// salt is the station's half of every rendezvous score.
func salt(station uint32) uint64 {
	return hash.Mix64(stationSalt ^ uint64(station))
}

// saltedScore is Score(p, s) given s's salt.
func saltedScore(p core.PersonID, salt uint64) uint64 {
	return hash.Mix64(uint64(p) ^ salt)
}

// AppendSalts appends each station's half of the rendezvous score, in ring
// order, and returns the extended slice: PickIndexes's input, computed once
// by a caller that picks for many persons over one membership.
func AppendSalts(dst []uint64, ring []uint32) []uint64 {
	for _, s := range ring {
		dst = append(dst, salt(s))
	}
	return dst
}

// Rank returns the stations ordered by descending rendezvous score for
// person p, ties broken by ascending station ID (unreachable in practice —
// Mix64 is a bijection — but it keeps the order total). The input slice is
// not modified. Pick falls back to it when r covers every station.
func Rank(p core.PersonID, stations []uint32) []uint32 {
	type scored struct {
		id    uint32
		score uint64
	}
	ranked := make([]scored, len(stations))
	for i, s := range stations {
		ranked[i] = scored{id: s, score: Score(p, s)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	out := make([]uint32, len(ranked))
	for i, s := range ranked {
		out[i] = s.id
	}
	return out
}

// Pick returns person p's replica set: its primary — the station with the
// highest rendezvous score — followed by the primary's r−1 successors in
// ascending station-ID order, wrapping around. The set does not depend on
// the order of stations. r <= 0 returns nil; r >= len(stations) returns
// Rank's order of every station, r == 1 the primary alone. The set is
// PickIndexes's over the sorted stations; stations given in ascending order
// (the coordinator's membership always is) are used as the ring without
// sorting.
func Pick(p core.PersonID, stations []uint32, r int) []uint32 {
	if r <= 0 || len(stations) == 0 {
		return nil
	}
	if r >= len(stations) {
		return Rank(p, stations)
	}
	ring := stations
	if !slices.IsSorted(ring) {
		ring = slices.Clone(stations)
		slices.Sort(ring)
	}
	salts := AppendSalts(make([]uint64, 0, 64), ring) // on the stack up to 64 stations
	out := PickIndexes(p, salts, r, make([]uint32, 0, r))
	for j, k := range out {
		out[j] = ring[k]
	}
	return out
}

// PickIndexes appends person p's replica set as indexes into the ascending
// ring whose AppendSalts are salts, and returns the extended slice: the
// primary, the highest score (ties to the lower index, so the lower id —
// unreachable in practice, Mix64 is a bijection, as in Rank), then its
// successors wrapping around, min(r, len(salts)) indexes in all. r <= 0
// appends nothing. It is the one definition of the replica set: Pick maps
// these indexes to station IDs, and only when r covers the ring does Pick
// instead list every station in Rank's order.
func PickIndexes(p core.PersonID, salts []uint64, r int, dst []uint32) []uint32 {
	w := min(r, len(salts))
	if w <= 0 {
		return dst
	}
	primary, best := 0, saltedScore(p, salts[0])
	for i := 1; i < len(salts); i++ {
		if sc := saltedScore(p, salts[i]); sc > best {
			primary, best = i, sc
		}
	}
	for j, k := 0, primary; j < w; j, k = j+1, k+1 {
		if k == len(salts) {
			k = 0 // w <= len(salts): the chain wraps at most once
		}
		dst = append(dst, uint32(k))
	}
	return dst
}

// ContentHash is the 64-bit digest of a placed pattern the Table keeps
// beside its factor: reconciliation compares every copy it pulls against
// it, so a replica that missed an upsert is repaired instead of being
// counted as a holder.
func ContentHash(pat pattern.Pattern) uint64 {
	h := hash.Mix64(uint64(len(pat)))
	for _, v := range pat {
		h = hash.Mix64(h ^ uint64(v))
	}
	return h
}

// Entry is one placement intent: the desired replication factor and the
// ContentHash of the pattern last placed.
type Entry struct {
	Factor int
	Hash   uint64
}

// Table is the coordinator's record of placement intents: which persons are
// under automatic placement, at what desired replication factor and with
// which content. It holds intents, not locations — replica locations are
// always recomputed from the live membership with Pick, and the
// reconciliation loop moves copies until reality matches the intent. The
// table is safe for concurrent use: searches consult it on the aggregation
// and routing paths while mutations update it.
type Table struct {
	mu      sync.RWMutex
	entries map[core.PersonID]Entry
	// factors counts the entries per factor, so Uniform is O(1).
	factors map[int]int
}

// NewTable returns an empty placement table with room for capacity persons,
// so a first bulk placement fills it without growing the map step by step.
func NewTable(capacity int) *Table {
	return &Table{entries: make(map[core.PersonID]Entry, capacity), factors: make(map[int]int)}
}

// Set records (or updates) a person's intent.
func (t *Table) Set(p core.PersonID, e Entry) {
	t.mu.Lock()
	if old, ok := t.entries[p]; ok {
		t.dropFactorLocked(old.Factor)
	}
	t.entries[p] = e
	t.factors[e.Factor]++
	t.mu.Unlock()
}

// Record sets the intent of every persons[i], all distinct, to factor and
// hashes[i] under one lock, and returns the intents it replaced (nil when
// it replaced none). A person is looked up first only when the table held
// anyone before the call: a cold bulk placement only inserts.
func (t *Table) Record(persons []core.PersonID, factor int, hashes []uint64) (prior map[core.PersonID]Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lookup := len(t.entries) > 0
	for i, p := range persons {
		if lookup {
			if old, ok := t.entries[p]; ok {
				if prior == nil {
					prior = make(map[core.PersonID]Entry)
				}
				prior[p] = old
				t.dropFactorLocked(old.Factor)
			}
		}
		t.entries[p] = Entry{Factor: factor, Hash: hashes[i]}
	}
	t.factors[factor] += len(persons)
	return prior
}

// Remove forgets a person; reconciliation will no longer manage them.
func (t *Table) Remove(p core.PersonID) {
	t.mu.Lock()
	if old, ok := t.entries[p]; ok {
		t.dropFactorLocked(old.Factor)
		delete(t.entries, p)
	}
	t.mu.Unlock()
}

func (t *Table) dropFactorLocked(r int) {
	if t.factors[r]--; t.factors[r] == 0 {
		delete(t.factors, r)
	}
}

// Get returns a person's intent, if placed.
func (t *Table) Get(p core.PersonID) (Entry, bool) {
	t.mu.RLock()
	e, ok := t.entries[p]
	t.mu.RUnlock()
	return e, ok
}

// Contains reports whether the person is under automatic placement. It is
// the predicate the replica-aware aggregation consults per reported person.
func (t *Table) Contains(p core.PersonID) bool {
	t.mu.RLock()
	_, ok := t.entries[p]
	t.mu.RUnlock()
	return ok
}

// Len returns the number of placed persons.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.entries)
	t.mu.RUnlock()
	return n
}

// Uniform returns the factor every placed person shares; ok is false when
// the table is empty or holds two factors.
func (t *Table) Uniform() (r int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.factors) == 1 {
		for r := range t.factors {
			return r, true
		}
	}
	return 0, false
}

// Snapshot returns a copy of the table. The reconciliation loop works over
// a snapshot so concurrent Place calls cannot race its iteration.
func (t *Table) Snapshot() map[core.PersonID]Entry {
	t.mu.RLock()
	out := make(map[core.PersonID]Entry, len(t.entries))
	for p, e := range t.entries {
		out[p] = e
	}
	t.mu.RUnlock()
	return out
}
