// AllocsPerRun pins: the resident store's steady-state surface —
// (*Residents).Find, replacing a resident's row through (*Residents).Upsert,
// and row access through (*Residents).Persons and (*Residents).Locals — held
// to 0 allocs/op. Inserting a new person is the one path allowed to allocate
// (a chunk, or slice growth).
package store

import (
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

func pinnedResidents() *Residents {
	r := &Residents{}
	for p := core.PersonID(1); p <= 300; p++ {
		r.Upsert(p*3, pattern.Pattern{int64(p), 2, 3, 4})
	}
	return r
}

var (
	findSink int
	cellSink int64
)

func TestNoallocResidentsFind(t *testing.T) {
	r := pinnedResidents()
	if n := testing.AllocsPerRun(100, func() {
		i, _ := r.Find(450)
		j, _ := r.Find(451)
		findSink = i + j
	}); n != 0 {
		t.Fatalf("(*Residents).Find allocates %v times per run; want 0", n)
	}
}

func TestNoallocResidentsUpsert(t *testing.T) {
	r := pinnedResidents()
	row := pattern.Pattern{9, 9, 9, 9}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Upsert(450, row) || r.Upsert(450, row[:3]) {
			t.Fatal("replace refused, or a foreign-length row applied")
		}
	}); n != 0 {
		t.Fatalf("(*Residents).Upsert allocates %v times per run replacing a resident; want 0", n)
	}
}

func TestNoallocResidentsRowAccess(t *testing.T) {
	r := pinnedResidents()
	if n := testing.AllocsPerRun(100, func() {
		i, _ := r.Find(450)
		cellSink = int64(r.Persons()[i]) + r.Locals()[i][0]
	}); n != 0 {
		t.Fatalf("(*Residents).Persons / (*Residents).Locals allocate %v times per run; want 0", n)
	}
}
