package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// matrixBatches builds a small, varied batch history: inserts, replacements,
// evicts, a batch that is entirely skipped (all-zero), interleaved so every
// prefix is a distinct store state. One row sits at the int32 edges, the
// widest values a station's cells take.
func matrixBatches() []store.Batch {
	return []store.Batch{
		{Op: store.OpIngest, Persons: []core.PersonID{5, 2}, Locals: []pattern.Pattern{{1, 1}, {2, 2}}},
		{Op: store.OpIngest, Persons: []core.PersonID{8}, Locals: []pattern.Pattern{{3, 3}}},
		{Op: store.OpEvict, Persons: []core.PersonID{2}},
		{Op: store.OpIngest, Persons: []core.PersonID{5, 11}, Locals: []pattern.Pattern{{9, 9}, {4, 4}}},
		{Op: store.OpIngest, Persons: []core.PersonID{13}, Locals: []pattern.Pattern{{0, 0}}}, // skipped entirely
		{Op: store.OpEvict, Persons: []core.PersonID{8, 99}},
		{Op: store.OpIngest, Persons: []core.PersonID{1, 3}, Locals: []pattern.Pattern{{7, 0}, {0, 7}}},
		{Op: store.OpEvict, Persons: []core.PersonID{5}},
		{Op: store.OpIngest, Persons: []core.PersonID{21, 22, 23}, Locals: []pattern.Pattern{{1, 2}, {3, 4}, {5, 6}}},
		{Op: store.OpEvict, Persons: []core.PersonID{22, 1}},
		{Op: store.OpIngest, Persons: []core.PersonID{3, 30}, Locals: []pattern.Pattern{{math.MaxInt32, math.MinInt32}, {math.MinInt32, 5}}},
	}
}

// prefixImages folds every batch prefix: prefixImages(batches)[m] is the
// exact store state after the first m batches applied.
func prefixImages(t *testing.T, batches []store.Batch) []store.Image {
	t.Helper()
	var fold store.FoldOf[pattern.Pattern, int64]
	images := []store.Image{fold.Image()}
	for _, b := range batches {
		if err := fold.Apply(b); err != nil {
			t.Fatalf("fold: %v", err)
		}
		images = append(images, fold.Image())
	}
	return images
}

// recordWAL appends the batches through a real store (no folding, sync every
// record) and returns the raw log bytes plus each record's end offset —
// boundaries[m] is the byte length of a log holding exactly m records.
func recordWAL(t *testing.T, batches []store.Batch) (raw []byte, boundaries []int) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	logPath := s.logPath(0)
	boundaries = []int{0}
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		boundaries = append(boundaries, len(data))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err = os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return raw, boundaries
}

// completeRecords returns how many whole records fit in the first n bytes.
func completeRecords(boundaries []int, n int) int {
	m := 0
	for m+1 < len(boundaries) && boundaries[m+1] <= n {
		m++
	}
	return m
}

// checkRecovered opens a directory holding the given log bytes, recovers
// into Pattern rows and into a station's int32 rows (recoverBoth), and
// asserts the result is exactly the m-batch prefix state — then appends
// one more batch and recovers again, proving the truncated store is live.
func checkRecovered(t *testing.T, label string, logBytes []byte, want store.Image) {
	t.Helper()
	dir := t.TempDir()
	logName := fmt.Sprintf("wal-%016x.log", 0)
	if err := os.WriteFile(filepath.Join(dir, logName), logBytes, 0o644); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	defer s.Close()
	img := recoverBoth(t, label, s)
	if !sameResidents(img, want) {
		t.Fatalf("%s: recovered %d residents %v, want %d %v",
			label, len(img.Persons), img.Persons, len(want.Persons), want.Persons)
	}
	// The tail must be gone from disk, not just skipped: the file ends at a
	// record boundary and re-opening finds nothing torn.
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if good, _ := scanLog(logBytes); fi.Size() != good {
		t.Fatalf("%s: file is %d bytes after recovery, want clean truncation at %d", label, fi.Size(), good)
	}
	// Liveness: the recovered store accepts appends and folds them in.
	extra := store.Batch{Op: store.OpIngest, Persons: []core.PersonID{777}, Locals: []pattern.Pattern{{6, 6}}}
	if err := s.Append(extra); err != nil {
		t.Fatalf("%s: post-recovery Append: %v", label, err)
	}
	img2 := recoverBoth(t, label+" post-append", s)
	var fold store.FoldOf[pattern.Pattern, int64]
	if err := fold.Load(want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := fold.Apply(extra); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !sameResidents(img2, fold.Image()) {
		t.Fatalf("%s: post-append recovery diverged", label)
	}
}

// recoverBoth recovers s into Pattern rows (Recover) and into a station's
// int32 rows (RecoverCells, what a station runs), fails unless the two hold
// the same values, and returns the Pattern image.
func recoverBoth(t *testing.T, label string, s *Store) store.Image {
	t.Helper()
	img, err := s.Recover()
	if err != nil {
		t.Fatalf("%s: Recover: %v", label, err)
	}
	cells, err := s.RecoverCells()
	if err != nil {
		t.Fatalf("%s: RecoverCells: %v", label, err)
	}
	if !sameResidents(widenImage(cells), img) {
		t.Fatalf("%s: RecoverCells gave %v %v, Recover %v %v", label, cells.Persons, cells.Locals, img.Persons, img.Locals)
	}
	return img
}

// widenImage returns img with its rows as Patterns.
func widenImage(img store.CellImage) store.Image {
	out := store.Image{Persons: img.Persons}
	for _, l := range img.Locals {
		out.Locals = append(out.Locals, widen(l))
	}
	return out
}

// widen returns an int32 row as a Pattern.
func widen(row []int32) pattern.Pattern {
	p := make(pattern.Pattern, len(row))
	for i, v := range row {
		p[i] = int64(v)
	}
	return p
}

func sameResidents(a, b store.Image) bool {
	if len(a.Persons) != len(b.Persons) {
		return false
	}
	if len(a.Persons) == 0 {
		return true
	}
	return reflect.DeepEqual(a.Persons, b.Persons) && reflect.DeepEqual(a.Locals, b.Locals)
}

// TestCrashPointMatrix replays every byte-prefix truncation of a recorded
// WAL — every possible torn write the OS could leave — and asserts recovery
// always yields the exact state of a whole-batch prefix: no partial batch is
// ever visible, and the torn tail is truncated from disk.
func TestCrashPointMatrix(t *testing.T) {
	batches := matrixBatches()
	images := prefixImages(t, batches)
	raw, boundaries := recordWAL(t, batches)
	if len(raw) == 0 || boundaries[len(boundaries)-1] != len(raw) {
		t.Fatalf("recorded WAL is %d bytes, boundaries %v", len(raw), boundaries)
	}
	for cut := 0; cut <= len(raw); cut++ {
		m := completeRecords(boundaries, cut)
		checkRecovered(t, fmt.Sprintf("cut=%d", cut), raw[:cut], images[m])
	}
}

// verbatimBatches returns matrixBatches with every ingest batch a station
// would apply whole carrying the wire payload a center sends for it — the
// form handleIngest hands Append. The all-zero batch, which no station
// applies, keeps only its rows.
func verbatimBatches(t *testing.T) []store.Batch {
	t.Helper()
	batches := matrixBatches()
	for i, b := range batches {
		if b.Op != store.OpIngest || b.Locals[0].Sum() == 0 {
			continue
		}
		payload, err := wire.EncodeRows(nil, b.Persons, b.Locals, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		batches[i].Payload = payload
	}
	return batches
}

// TestCrashPointMatrixVerbatim: a batch carrying its received payload is
// logged as that payload, not encoded again; the log recorded from such
// batches is byte-identical to the re-encoded one; and every truncation of
// it recovers the same whole-batch prefix state as the re-encoded log.
func TestCrashPointMatrixVerbatim(t *testing.T) {
	batches := verbatimBatches(t)
	for i, b := range batches {
		if b.Payload == nil {
			continue
		}
		kind, body, err := encodeBatch(b)
		if err != nil || kind != recIngest || len(body) != len(b.Payload) || &body[0] != &b.Payload[0] {
			t.Fatalf("batch %d: encodeBatch = kind 0x%02x, %d-byte body, %v; want the payload itself as a recIngest body", i, kind, len(body), err)
		}
	}
	images := prefixImages(t, batches)
	raw, boundaries := recordWAL(t, batches)
	reencoded, _ := recordWAL(t, matrixBatches())
	if !bytes.Equal(raw, reencoded) {
		t.Fatalf("verbatim log (%d B) differs from the re-encoded log (%d B)", len(raw), len(reencoded))
	}
	for cut := 0; cut <= len(raw); cut++ {
		m := completeRecords(boundaries, cut)
		checkRecovered(t, fmt.Sprintf("verbatim cut=%d", cut), raw[:cut], images[m])
	}
}

// TestCrashPointCorruptTail flips every single byte of the recorded WAL in
// turn and asserts recovery still yields a consistent whole-batch prefix:
// the CRC catches the corruption and everything from the flipped record on
// is truncated.
func TestCrashPointCorruptTail(t *testing.T) {
	batches := matrixBatches()
	images := prefixImages(t, batches)
	raw, boundaries := recordWAL(t, batches)
	for flip := 0; flip < len(raw); flip++ {
		corrupted := append([]byte(nil), raw...)
		corrupted[flip] ^= 0xff
		// The flipped byte lives in record j: recovery must surface exactly
		// the first j batches. (A flip in record j's length prefix makes the
		// CRC check read the wrong span; IEEE CRC32 catches it.)
		j := completeRecords(boundaries, flip)
		checkRecovered(t, fmt.Sprintf("flip=%d", flip), corrupted, images[j])
	}
}

// TestCrashPointWithSnapshot runs the truncation matrix on a generation that
// starts from a snapshot: recovery must fold snapshot + log-prefix, and a
// torn tail must never disturb the snapshot floor.
func TestCrashPointWithSnapshot(t *testing.T) {
	base := store.Image{
		Persons: []core.PersonID{2, 5, 8},
		Locals:  []pattern.Pattern{{2, 2}, {1, 1}, {3, 3}},
	}
	batches := matrixBatches()

	// Record a generation-1 store: snapshot the base, then append.
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Snapshot(base); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	logPath := s.logPath(s.Generation())
	snapPath := s.snapPath(s.Generation())
	boundaries := []int{0}
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		boundaries = append(boundaries, len(data))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	snapRaw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// Fold the expected prefixes on top of the snapshot base.
	var fold store.FoldOf[pattern.Pattern, int64]
	if err := fold.Load(base); err != nil {
		t.Fatalf("fold: %v", err)
	}
	images := []store.Image{fold.Image()}
	for _, b := range batches {
		if err := fold.Apply(b); err != nil {
			t.Fatalf("fold: %v", err)
		}
		images = append(images, fold.Image())
	}

	for cut := 0; cut <= len(raw); cut += 3 { // stride 3: same coverage class, faster
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(snapPath)), snapRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(logPath)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		img := recoverBoth(t, fmt.Sprintf("cut=%d", cut), s2)
		m := completeRecords(boundaries, cut)
		if !sameResidents(img, images[m]) {
			t.Fatalf("cut=%d: recovered %v, want prefix %d = %v", cut, img.Persons, m, images[m].Persons)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestRecoverRefusesUndecodableRecord: a log record whose framing and CRC are
// intact but whose kind or body does not decode is not a torn tail. Open
// keeps it, and Recover must fail with a typed error rather than stop there
// and silently drop every batch acked after it.
func TestRecoverRefusesUndecodableRecord(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   byte
		body   []byte
		wantIs error
	}{
		{"foreign kind", recSeal, make([]byte, 8), ErrBadKind},
		{"bad ingest body", recIngest, []byte{0xff}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			first := store.Batch{Op: store.OpIngest, Persons: []core.PersonID{1}, Locals: []pattern.Pattern{{1, 1}}}
			if err := s.Append(first); err != nil {
				t.Fatal(err)
			}
			logPath := s.logPath(s.Generation())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(appendRecord(nil, tc.kind, tc.body)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen and ack person 2 after the undecodable record.
			s, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.torn != 0 {
				t.Fatalf("Open truncated %d bytes of a well-framed record", s.torn)
			}
			second := store.Batch{Op: store.OpIngest, Persons: []core.PersonID{2}, Locals: []pattern.Pattern{{2, 2}}}
			if err := s.Append(second); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			img, err := s.Recover()
			if err == nil {
				t.Fatalf("Recover returned persons %v and no error, skipping the acked batch after the undecodable record", img.Persons)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("Recover: %v, want %v", err, tc.wantIs)
			}
		})
	}
}

// TestRecoverCellsRefusesWideValue: a log record or a snapshot holding a
// value an int32 cannot hold — written by a build whose stations kept int64
// cells — recovers in Pattern rows, but a station's int32 recovery fails
// with wire.ErrCellRange instead of storing another value.
func TestRecoverCellsRefusesWideValue(t *testing.T) {
	wide := store.Image{Persons: []core.PersonID{4, 6}, Locals: []pattern.Pattern{{1, 2}, {1 << 31, 1}}}
	for _, viaSnapshot := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, Options{SnapshotEvery: -1, SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if viaSnapshot {
			err = s.Snapshot(wide)
		} else {
			err = s.Append(store.Batch{Op: store.OpIngest, Persons: wide.Persons, Locals: wide.Locals})
		}
		if err != nil {
			t.Fatal(err)
		}
		img, err := s.Recover()
		if err != nil || !sameResidents(img, wide) {
			t.Fatalf("snapshot %v: Recover = %v, %v; want %v", viaSnapshot, img.Locals, err, wide.Locals)
		}
		if cells, err := s.RecoverCells(); !errors.Is(err, wire.ErrCellRange) {
			t.Fatalf("snapshot %v: RecoverCells = %v, %v; want ErrCellRange", viaSnapshot, cells.Locals, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
