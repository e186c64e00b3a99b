// Package placement assigns patterns to base stations with rendezvous
// (highest-random-weight, HRW) hashing and tracks the coordinator's placement
// intents.
//
// Rendezvous hashing scores every (person, station) pair with a deterministic
// mix of both IDs; a person's replicas live on the R highest-scoring alive
// stations. The scheme needs no coordination state beyond the membership
// list, every coordinator computes identical assignments, and it is minimally
// disruptive: removing a station only moves the patterns that station held
// (their next-ranked stations take over), and adding one only moves the
// patterns whose new station out-scores an incumbent. Bloofi (Crainiceanu &
// Lemire) motivates the coordinator-side per-station summaries this package's
// Table provides; "The Distributed Bloom Filter" (Ramabaja & Avdullahu)
// motivates keeping replicated filter state eventually consistent, which the
// cluster's reconciliation loop implements on top of these primitives.
package placement

import (
	"sort"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/hash"
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
	return hash.Mix64(uint64(p) ^ hash.Mix64(stationSalt^uint64(station)))
}

// Rank returns the stations ordered by descending rendezvous score for
// person p, ties broken by ascending station ID (unreachable in practice —
// Mix64 is a bijection — but it keeps the order total). The input slice is
// not modified. Scores live in a flat slice, not a map: reconciliation
// ranks every placed person, so the per-call cost is S score computations
// and one slice sort, no hashing.
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

// Pick returns person p's replica set: the min(r, len(stations)) stations
// with the highest rendezvous scores, in Rank's order — Rank(p, stations)[:r]
// without ranking the rest. r <= 0 returns nil. Placement picks a handful of
// replicas out of the whole membership for every person placed, so the
// winners are kept in one pass over the scores (an insertion into r sorted
// slots) instead of sorting all S stations.
func Pick(p core.PersonID, stations []uint32, r int) []uint32 {
	if r <= 0 || len(stations) == 0 {
		return nil
	}
	if r >= len(stations) {
		return Rank(p, stations)
	}
	ids := make([]uint32, 0, r)
	scores := make([]uint64, 0, r)
	for _, s := range stations {
		sc := Score(p, s)
		// i is where (sc, s) belongs among the winners so far: after every
		// higher score, and after an equal score with a lower id.
		i := len(ids)
		for i > 0 && (scores[i-1] < sc || (scores[i-1] == sc && ids[i-1] > s)) {
			i--
		}
		if i == r {
			continue
		}
		if len(ids) < r {
			ids = append(ids, 0)
			scores = append(scores, 0)
		}
		copy(ids[i+1:], ids[i:])
		copy(scores[i+1:], scores[i:])
		ids[i], scores[i] = s, sc
	}
	return ids
}

// Table is the coordinator's record of placement intents: which persons are
// under automatic placement and at what desired replication factor. It holds
// intents, not locations — replica locations are always recomputed from the
// live membership with Pick, and the reconciliation loop moves copies until
// reality matches the intent. The table is safe for concurrent use: searches
// consult it on the aggregation path while mutations update it.
type Table struct {
	mu      sync.RWMutex
	entries map[core.PersonID]int
}

// NewTable returns an empty placement table.
func NewTable() *Table {
	return &Table{entries: make(map[core.PersonID]int)}
}

// Set records (or updates) a person's desired replication factor.
func (t *Table) Set(p core.PersonID, r int) {
	t.mu.Lock()
	t.entries[p] = r
	t.mu.Unlock()
}

// Remove forgets a person; reconciliation will no longer manage them.
func (t *Table) Remove(p core.PersonID) {
	t.mu.Lock()
	delete(t.entries, p)
	t.mu.Unlock()
}

// Factor returns a person's desired replication factor, if placed.
func (t *Table) Factor(p core.PersonID) (int, bool) {
	t.mu.RLock()
	r, ok := t.entries[p]
	t.mu.RUnlock()
	return r, ok
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

// Snapshot returns a copy of the table: person → desired factor. The
// reconciliation loop works over a snapshot so concurrent Place calls cannot
// race its iteration.
func (t *Table) Snapshot() map[core.PersonID]int {
	t.mu.RLock()
	out := make(map[core.PersonID]int, len(t.entries))
	for p, r := range t.entries {
		out[p] = r
	}
	t.mu.RUnlock()
	return out
}
