package store_test

import (
	"reflect"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
)

// snapshotStore is a backend that can also replace its durable state
// wholesale, as both implementations can.
type snapshotStore interface {
	store.Store
	SnapshotCells(store.CellImage) error
}

// backends enumerates every store implementation under one contract: the
// in-memory default is the trivially correct reference, and the WAL backend
// must recover exactly what it would.
func backends(t *testing.T) map[string]func(t *testing.T) snapshotStore {
	return map[string]func(t *testing.T) snapshotStore{
		"memory": func(t *testing.T) snapshotStore { return store.NewMemory() },
		"wal": func(t *testing.T) snapshotStore {
			s, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			return s
		},
	}
}

func pat(vs ...int64) pattern.Pattern { return pattern.Pattern(vs) }

// cells narrows in-range patterns to a station's int32 rows.
func cells(locals []pattern.Pattern) [][]int32 {
	out := make([][]int32, len(locals))
	for i, l := range locals {
		out[i] = pattern.AppendCells(nil, l)
	}
	return out
}

// widen is cells' inverse.
func widen(locals [][]int32) []pattern.Pattern {
	var out []pattern.Pattern
	for _, l := range locals {
		p := make(pattern.Pattern, len(l))
		for i, v := range l {
			p[i] = int64(v)
		}
		out = append(out, p)
	}
	return out
}

func ingest(persons []core.PersonID, locals []pattern.Pattern) store.CellBatch {
	return store.CellBatch{Op: store.OpIngest, Persons: persons, Locals: cells(locals)}
}

func evict(persons ...core.PersonID) store.CellBatch {
	return store.CellBatch{Op: store.OpEvict, Persons: persons}
}

// wantImage asserts the recovered residents match.
func wantImage(t *testing.T, s store.Store, persons []core.PersonID, locals []pattern.Pattern) {
	t.Helper()
	img, err := s.RecoverCells()
	if err != nil {
		t.Fatalf("RecoverCells: %v", err)
	}
	if len(img.Persons) == 0 {
		img.Persons = nil
	}
	if got := widen(img.Locals); !reflect.DeepEqual(got, locals) {
		t.Fatalf("recovered locals %v, want %v", got, locals)
	}
	if !reflect.DeepEqual(img.Persons, persons) {
		t.Fatalf("recovered persons %v, want %v", img.Persons, persons)
	}
}

func TestStoreContract(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()

			wantImage(t, s, nil, nil)

			// Appends fold with station semantics: sorted, zero-sum skipped,
			// upsert replaces.
			if err := s.AppendCells(ingest(
				[]core.PersonID{7, 3, 5},
				[]pattern.Pattern{pat(1, 2), pat(3, 4), pat(0, 0)},
			)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			wantImage(t, s,
				[]core.PersonID{3, 7},
				[]pattern.Pattern{pat(3, 4), pat(1, 2)})

			if err := s.AppendCells(ingest(
				[]core.PersonID{3, 9},
				[]pattern.Pattern{pat(8, 8), pat(5, 5)},
			)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			// Evicts of absent persons are ignored.
			if err := s.AppendCells(evict(7, 100)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			wantImage(t, s,
				[]core.PersonID{3, 9},
				[]pattern.Pattern{pat(8, 8), pat(5, 5)})

			// Snapshot replaces the durable state; appends fold on top of it.
			if err := s.SnapshotCells(store.CellImage{
				Persons: []core.PersonID{42},
				Locals:  cells([]pattern.Pattern{pat(4, 2)}),
			}); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			wantImage(t, s, []core.PersonID{42}, []pattern.Pattern{pat(4, 2)})
			if err := s.AppendCells(evict(42)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			wantImage(t, s, nil, nil)

			// Unknown ops are typed errors.
			if err := s.AppendCells(store.CellBatch{Op: 99}); err == nil {
				t.Fatal("Append of unknown op succeeded")
			}
		})
	}
}

// TestWALSurvivesReopen is the durability half the memory backend cannot
// share: state must come back through a fresh Open of the same directory.
func TestWALSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := s.AppendCells(ingest(
		[]core.PersonID{1, 2},
		[]pattern.Pattern{pat(1, 1), pat(2, 2)},
	)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.AppendCells(evict(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// No Close: simulate the process dying without a clean shutdown. Every
	// append is fsynced before it returns, so both batches are on disk.
	s2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	wantImage(t, s2, []core.PersonID{2}, []pattern.Pattern{pat(2, 2)})
}

// TestWALCompactFolds exercises the record-count trigger: the log folds into
// a snapshot generation and recovery still sees every batch.
func TestWALCompactFolds(t *testing.T) {
	dir := t.TempDir()
	s, err := wal.Open(dir, wal.Options{SnapshotEvery: 3, SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	var wantPersons []core.PersonID
	var wantLocals []pattern.Pattern
	folds := 0
	for i := 1; i <= 10; i++ {
		p := core.PersonID(i)
		l := pat(int64(i), int64(i))
		if err := s.AppendCells(ingest([]core.PersonID{p}, []pattern.Pattern{l})); err != nil {
			t.Fatalf("Append: %v", err)
		}
		wantPersons = append(wantPersons, p)
		wantLocals = append(wantLocals, l)
		folded, err := s.Compact(store.CellImage{Persons: wantPersons, Locals: cells(wantLocals)})
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if folded {
			folds++
		}
	}
	if folds == 0 {
		t.Fatal("Compact never folded despite SnapshotEvery=3")
	}
	if s.Generation() == 0 {
		t.Fatal("Compact folded but the generation never advanced")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	wantImage(t, s2, wantPersons, wantLocals)
}
