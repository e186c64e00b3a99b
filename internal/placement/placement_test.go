package placement

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

func TestScoreDeterministic(t *testing.T) {
	if Score(1, 2) != Score(1, 2) {
		t.Fatal("score is not deterministic")
	}
	if Score(1, 2) == Score(1, 3) || Score(1, 2) == Score(2, 2) {
		t.Fatal("scores collide on trivially different inputs")
	}
}

func TestPickBasics(t *testing.T) {
	stations := []uint32{1, 2, 3, 4, 5}
	if got := Pick(7, stations, 0); got != nil {
		t.Fatalf("r=0 picked %v", got)
	}
	if got := Pick(7, nil, 2); got != nil {
		t.Fatalf("no stations picked %v", got)
	}
	if got := Pick(7, stations, 10); len(got) != len(stations) {
		t.Fatalf("r beyond membership picked %d stations, want %d", len(got), len(stations))
	}
	two := Pick(7, stations, 2)
	if len(two) != 2 || two[0] == two[1] {
		t.Fatalf("Pick(7, _, 2) = %v", two)
	}
	// The primary is the rendezvous winner; the second replica is its
	// successor in ascending id order, wrapping past the highest id.
	ranked := Rank(7, stations)
	if two[0] != ranked[0] {
		t.Fatalf("Pick %v does not start at the rendezvous winner %d", two, ranked[0])
	}
	if want := stations[(int(two[0]-1)+1)%len(stations)]; two[1] != want {
		t.Fatalf("Pick %v: second replica %d, want the primary's successor %d", two, two[1], want)
	}
	// The set does not depend on the input order, and neither call may
	// mutate its input.
	shuffled := []uint32{4, 1, 5, 3, 2}
	if got := Pick(7, shuffled, 2); got[0] != two[0] || got[1] != two[1] {
		t.Fatalf("Pick over shuffled input = %v, over sorted %v", got, two)
	}
	if stations[0] != 1 || stations[4] != 5 || shuffled[0] != 4 || shuffled[4] != 2 {
		t.Fatalf("Pick or Rank mutated input: %v %v", stations, shuffled)
	}
}

// TestPickChainsFromRankWinner pins Pick's contract for every membership
// size and every r around the boundaries: the first station is Rank's
// winner, the rest are its successors in ascending id order around the
// ring, and r >= the membership is Rank's whole order.
func TestPickChainsFromRankWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(128)
		stations := make([]uint32, n)
		for i, s := range rng.Perm(4 * n)[:n] {
			stations[i] = uint32(s)
		}
		ring := slices.Clone(stations)
		slices.Sort(ring)
		p := core.PersonID(rng.Uint64())
		ranked := Rank(p, stations)
		at := slices.Index(ring, ranked[0])
		for _, r := range []int{1, 2, 3, n, n + 1} {
			want := ranked
			if r < n {
				want = make([]uint32, r)
				for j := range want {
					want[j] = ring[(at+j)%n]
				}
			}
			for _, in := range [][]uint32{stations, ring} {
				if got := Pick(p, in, r); !slices.Equal(got, want) {
					t.Fatalf("person %d, %d stations, r=%d: Pick = %v, want %v", p, n, r, got, want)
				}
			}
		}
	}
}

// BenchmarkPick64R2 is the placement layer's per-person cost at the
// repository benchmark's shape: 2 replicas out of 64 stations.
func BenchmarkPick64R2(b *testing.B) {
	stations := make([]uint32, 64)
	for i := range stations {
		stations[i] = uint32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink = Pick(core.PersonID(i), stations, 2)
	}
}

var pickSink []uint32

// TestPickIndexesArePick holds the salted index pass to Pick: over random
// ascending memberships with gaps in their IDs, up to beyond the 64
// stations Pick salts on the stack, and r from 0 to beyond the membership,
// PickIndexes appends after what dst holds exactly Pick's stations as
// indexes into the ring — in Pick's order, or as a set where r covers the
// ring and Pick lists Rank's order.
func TestPickIndexesArePick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		ring := make([]uint32, n)
		for i, id := 0, uint32(rng.Intn(5)); i < n; i, id = i+1, id+uint32(1+rng.Intn(1000)) {
			ring[i] = id
		}
		salts := AppendSalts(nil, ring)
		p := core.PersonID(rng.Uint64())
		for _, r := range []int{0, 1, 2, 3, n - 1, n, n + 2} {
			prefix := []uint32{7, 9}
			got := PickIndexes(p, salts, r, slices.Clone(prefix))
			if !slices.Equal(got[:2], prefix) {
				t.Fatalf("%d stations, r=%d: dst's contents became %v", n, r, got[:2])
			}
			ids := make([]uint32, 0, len(got)-2)
			for _, k := range got[2:] {
				ids = append(ids, ring[k])
			}
			want := Pick(p, ring, r)
			if r >= n {
				slices.Sort(want)
				slices.Sort(ids)
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("person %d, %d stations, r=%d: PickIndexes gives %v, Pick %v", p, n, r, ids, want)
			}
		}
	}
}

// TestMinimalDisruption pins what chained sets keep of rendezvous hashing:
// removing or adding a station changes only the replica sets it is (or
// becomes) a member of, and a surviving primary keeps its place.
func TestMinimalDisruption(t *testing.T) {
	stations := []uint32{10, 20, 30, 40, 50, 60}
	const r = 2
	const persons = 500

	full := make(map[core.PersonID][]uint32, persons)
	for p := core.PersonID(1); p <= persons; p++ {
		full[p] = Pick(p, stations, r)
	}

	// Remove station 30.
	survivors := slices.DeleteFunc(slices.Clone(stations), func(s uint32) bool { return s == 30 })
	moved := 0
	for p, before := range full {
		after := Pick(p, survivors, r)
		if !slices.Contains(before, 30) {
			if !slices.Equal(after, before) {
				t.Fatalf("person %d moved from %v to %v though station 30 held no replica", p, before, after)
			}
			continue
		}
		moved++
		if before[0] != 30 && after[0] != before[0] {
			t.Fatalf("person %d lost surviving primary %d: %v -> %v", p, before[0], before, after)
		}
	}
	if moved == 0 {
		t.Fatal("station 30 held no replica set")
	}

	// Add station 70: a person's set changes only if 70 enters it, and a
	// primary 70 did not out-score stays primary.
	grown := append(slices.Clone(stations), 70)
	for p, before := range full {
		after := Pick(p, grown, r)
		if !slices.Contains(after, 70) {
			if !slices.Equal(after, before) {
				t.Fatalf("person %d moved from %v to %v though station 70 did not join the set", p, before, after)
			}
			continue
		}
		if after[0] != 70 && after[0] != before[0] {
			t.Fatalf("person %d: primary %d displaced by %v though 70 did not win", p, before[0], after)
		}
	}
}

// TestDistribution sanity-checks load balance: with 6 stations and R=2, no
// station should hold a wildly disproportionate share.
func TestDistribution(t *testing.T) {
	stations := []uint32{1, 2, 3, 4, 5, 6}
	counts := make(map[uint32]int)
	const persons = 3000
	for p := core.PersonID(1); p <= persons; p++ {
		for _, s := range Pick(p, stations, 2) {
			counts[s]++
		}
	}
	mean := 2 * persons / len(stations)
	for s, n := range counts {
		if n < mean/2 || n > 2*mean {
			t.Fatalf("station %d holds %d replicas, mean is %d", s, n, mean)
		}
	}
}

func TestTable(t *testing.T) {
	tab := NewTable(0)
	if tab.Len() != 0 || tab.Contains(1) {
		t.Fatal("fresh table not empty")
	}
	if _, ok := tab.Uniform(); ok {
		t.Fatal("empty table has a uniform factor")
	}
	tab.Set(5, Entry{Factor: 2, Hash: 1})
	if r, ok := tab.Uniform(); !ok || r != 2 {
		t.Fatalf("Uniform() = %d, %v after one factor-2 entry", r, ok)
	}
	tab.Set(3, Entry{Factor: 3})
	tab.Set(5, Entry{Factor: 2, Hash: 9})
	if tab.Len() != 2 || !tab.Contains(5) {
		t.Fatalf("table has %d entries", tab.Len())
	}
	if e, ok := tab.Get(3); !ok || e.Factor != 3 {
		t.Fatalf("Get(3) = %+v, %v", e, ok)
	}
	if e, _ := tab.Get(5); e.Hash != 9 {
		t.Fatalf("Get(5) = %+v, want the updated hash", e)
	}
	if _, ok := tab.Get(4); ok {
		t.Fatal("Get(4) found an entry")
	}
	if _, ok := tab.Uniform(); ok {
		t.Fatal("factors 2 and 3 reported uniform")
	}
	snap := tab.Snapshot()
	tab.Remove(5)
	if tab.Contains(5) || tab.Len() != 1 {
		t.Fatal("Remove did not remove")
	}
	if r, ok := tab.Uniform(); !ok || r != 3 {
		t.Fatalf("Uniform() = %d, %v after removing the factor-2 entry", r, ok)
	}
	if len(snap) != 2 {
		t.Fatal("snapshot mutated by Remove")
	}
}

// TestTableRecord: a batch recorded under one lock equals the same Sets, and
// returns exactly the intents it replaced — none into an empty table.
func TestTableRecord(t *testing.T) {
	tab := NewTable(0)
	if prior := tab.Record([]core.PersonID{1, 2, 3}, 2, []uint64{11, 12, 13}); prior != nil {
		t.Fatalf("Record into an empty table replaced %v", prior)
	}
	tab.Set(9, Entry{Factor: 3, Hash: 99})
	prior := tab.Record([]core.PersonID{2, 4, 9}, 1, []uint64{22, 24, 29})
	want := map[core.PersonID]Entry{2: {Factor: 2, Hash: 12}, 9: {Factor: 3, Hash: 99}}
	if !maps.Equal(prior, want) {
		t.Fatalf("Record replaced %v, want %v", prior, want)
	}
	ref := NewTable(0)
	for p, e := range map[core.PersonID]Entry{1: {2, 11}, 2: {1, 22}, 3: {2, 13}, 4: {1, 24}, 9: {1, 29}} {
		ref.Set(p, e)
	}
	if !maps.Equal(tab.Snapshot(), ref.Snapshot()) {
		t.Fatalf("table %v, want %v", tab.Snapshot(), ref.Snapshot())
	}
	if !maps.Equal(tab.factors, ref.factors) {
		t.Fatalf("factor counts %v, want %v", tab.factors, ref.factors)
	}
	tab.Record([]core.PersonID{1, 3}, 1, []uint64{0, 0})
	if r, ok := tab.Uniform(); !ok || r != 1 {
		t.Fatalf("Uniform() = %d, %v after every person moved to factor 1", r, ok)
	}
}

func TestContentHash(t *testing.T) {
	a := pattern.Pattern{1, 2, 3}
	if ContentHash(a) != ContentHash(pattern.Pattern{1, 2, 3}) {
		t.Fatal("equal patterns hash apart")
	}
	for _, b := range []pattern.Pattern{{1, 2, 4}, {3, 2, 1}, {1, 2, 3, 0}, {1, 2}} {
		if ContentHash(a) == ContentHash(b) {
			t.Fatalf("%v and %v collide", a, b)
		}
	}
}
