package placement

import (
	"math/rand"
	"testing"

	"dimatch/internal/core"
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
	// Pick is a prefix of Rank.
	ranked := Rank(7, stations)
	if ranked[0] != two[0] || ranked[1] != two[1] {
		t.Fatalf("Pick %v is not a prefix of Rank %v", two, ranked)
	}
	// Rank must not mutate its input.
	if stations[0] != 1 || stations[4] != 5 {
		t.Fatalf("Rank mutated input: %v", stations)
	}
}

// TestPickEqualsRankPrefix pins Pick's contract: it selects without sorting,
// and the selection is exactly the first r stations of the full ranking, in
// order, for every membership size and every r around the boundaries.
func TestPickEqualsRankPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(128)
		stations := make([]uint32, n)
		for i, s := range rng.Perm(4 * n)[:n] {
			stations[i] = uint32(s)
		}
		p := core.PersonID(rng.Uint64())
		ranked := Rank(p, stations)
		for _, r := range []int{1, 2, 3, n, n + 1} {
			want := ranked
			if r < n {
				want = ranked[:r]
			}
			got := Pick(p, stations, r)
			if len(got) != len(want) {
				t.Fatalf("person %d, %d stations, r=%d: Pick returned %d stations, want %d", p, n, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("person %d, %d stations, r=%d: Pick = %v, Rank prefix = %v", p, n, r, got, want)
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

// TestMinimalDisruption pins rendezvous hashing's defining property: removing
// a station only reassigns the persons that station served — everyone else's
// replica set is untouched — and adding a station never displaces more than
// it wins.
func TestMinimalDisruption(t *testing.T) {
	stations := []uint32{10, 20, 30, 40, 50, 60}
	const r = 2
	const persons = 500

	full := make(map[core.PersonID][]uint32, persons)
	for p := core.PersonID(1); p <= persons; p++ {
		full[p] = Pick(p, stations, r)
	}

	// Remove station 30.
	var survivors []uint32
	for _, s := range stations {
		if s != 30 {
			survivors = append(survivors, s)
		}
	}
	for p, before := range full {
		after := Pick(p, survivors, r)
		held := false
		for _, s := range before {
			if s == 30 {
				held = true
			}
		}
		if !held {
			// Persons station 30 did not serve keep their exact replica set.
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("person %d moved from %v to %v though station 30 held no replica", p, before, after)
				}
			}
			continue
		}
		// Persons it did serve keep their surviving replica.
		for _, s := range before {
			if s == 30 {
				continue
			}
			found := false
			for _, a := range after {
				if a == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("person %d lost surviving replica %d: %v -> %v", p, s, before, after)
			}
		}
	}

	// Add station 70: a person's set changes only if 70 enters it.
	grown := append(append([]uint32(nil), stations...), 70)
	for p, before := range full {
		after := Pick(p, grown, r)
		joined := false
		for _, a := range after {
			if a == 70 {
				joined = true
			}
		}
		if joined {
			continue
		}
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("person %d moved from %v to %v though station 70 did not win", p, before, after)
			}
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
	tab := NewTable()
	if tab.Len() != 0 || tab.Contains(1) {
		t.Fatal("fresh table not empty")
	}
	tab.Set(5, 2)
	tab.Set(3, 3)
	tab.Set(5, 2)
	if tab.Len() != 2 || !tab.Contains(5) {
		t.Fatalf("table has %d entries", tab.Len())
	}
	if r, ok := tab.Factor(3); !ok || r != 3 {
		t.Fatalf("Factor(3) = %d, %v", r, ok)
	}
	if _, ok := tab.Factor(4); ok {
		t.Fatal("Factor(4) found an entry")
	}
	snap := tab.Snapshot()
	tab.Remove(5)
	if tab.Contains(5) || tab.Len() != 1 {
		t.Fatal("Remove did not remove")
	}
	if len(snap) != 2 {
		t.Fatal("snapshot mutated by Remove")
	}
}
