package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// appendRecord frames body under kind onto dst: writeRecord's bytes, in
// memory.
func appendRecord(dst []byte, kind byte, body []byte) []byte {
	hdr := recordHeader(kind, body)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// encodeSnapshot is the reference snapshot encoder: the whole file body
// rendered into one buffer, as Snapshot wrote it before it streamed.
// writeSnapshot must produce exactly these bytes.
func encodeSnapshot(img store.Image) ([]byte, error) {
	buf := append([]byte(nil), snapMagic[:]...)
	buf = append(buf, snapVersion)
	for start := 0; start < len(img.Persons); start += snapChunk {
		end := start + snapChunk
		if end > len(img.Persons) {
			end = len(img.Persons)
		}
		body, err := wire.EncodeRows(nil, img.Persons[start:end], img.Locals[start:end], nil, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot: %w", err)
		}
		buf = appendRecord(buf, recResidents, body)
	}
	var seal [8]byte
	binary.LittleEndian.PutUint64(seal[:], uint64(len(img.Persons)))
	return appendRecord(buf, recSeal, seal[:]), nil
}

// residentImage draws a station image of n residents with length-24 rows,
// persons ascending with gaps, values as a call-record day spreads them.
func residentImage(n int, seed int64) store.Image {
	rng := rand.New(rand.NewSource(seed))
	img := store.Image{Persons: make([]core.PersonID, n), Locals: make([]pattern.Pattern, n)}
	next := core.PersonID(1)
	for i := range img.Persons {
		next += core.PersonID(1 + rng.Intn(3))
		img.Persons[i] = next
		row := make(pattern.Pattern, 24)
		for j := range row {
			row[j] = rng.Int63n(300)
		}
		row[0]++
		img.Locals[i] = row
	}
	return img
}

// TestWriteSnapshotMatchesReference: the streamed snapshot is byte-identical
// to the reference encoder's at every chunking edge — empty, one resident,
// exactly one chunk, one past it, and a station-sized image — both written
// to memory and as the file Snapshot leaves on disk.
func TestWriteSnapshotMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, snapChunk, snapChunk + 1, 25_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			img := residentImage(n, int64(n))
			want, err := encodeSnapshot(img)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := writeSnapshot(&buf, img); err != nil {
				t.Fatalf("writeSnapshot: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("streamed snapshot differs from the reference: %d bytes against %d", buf.Len(), len(want))
			}

			s, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			if err := s.Snapshot(img); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			got, err := os.ReadFile(s.snapPath(s.Generation()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshot file differs from the reference: %d bytes against %d", len(got), len(want))
			}
		})
	}
}

var errDiskFull = errors.New("disk full")

// failAfter passes the first n bytes written through to w and fails every
// write after them.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	m, err := f.w.Write(p[:f.n])
	f.n -= m
	if err == nil {
		err = errDiskFull
	}
	return m, err
}

// TestSnapshotWriteFailureKeepsPreviousGeneration: a temp file that stops
// taking bytes at any point — in the header, in a record header, at the
// buffer's edge, mid-chunk, one byte short — makes Snapshot fail with the
// write's error, leaves no .tmp behind, and the directory still recovers
// the previous generation with its log.
func TestSnapshotWriteFailureKeepsPreviousGeneration(t *testing.T) {
	base := residentImage(snapChunk+1, 1)
	batches := matrixBatches()
	var fold store.FoldOf[pattern.Pattern, int64]
	if err := fold.Load(base); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := fold.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	want := fold.Image()
	file, err := encodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	defer func(sink func(*os.File) io.Writer) { snapshotSink = sink }(snapshotSink)

	for _, cut := range []int{0, 3, snapHeaderSize + 5, 4096, len(file) / 2, len(file) - 1} {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{SnapshotEvery: -1, SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Snapshot(base); err != nil {
				t.Fatalf("first Snapshot: %v", err)
			}
			for _, b := range batches {
				if err := s.Append(b); err != nil {
					t.Fatal(err)
				}
			}

			snapshotSink = func(f *os.File) io.Writer { return &failAfter{w: f, n: cut} }
			err = s.Snapshot(want)
			snapshotSink = func(f *os.File) io.Writer { return f }
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("Snapshot failing after %d of %d bytes returned %v, want the write error", cut, len(file), err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("failed Snapshot left %s behind", e.Name())
				}
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s2.Close() }()
			if s2.Generation() != 1 {
				t.Fatalf("reopened at generation %d, want the previous generation 1", s2.Generation())
			}
			got, err := s2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if !sameResidents(got, want) {
				t.Fatalf("recovered %d residents, want the previous generation's %d", len(got.Persons), len(want.Persons))
			}
		})
	}
}

// TestSnapshotAllocatesOneChunk pins the streamed fold's memory: one
// Snapshot of a 25 000-resident station holds one chunk record's encoding
// (≈ 4096 rows, in a buffer grown once) and a write buffer, never the whole
// file. On these rows it allocates ≈ 580 KB where the whole-file encoder
// allocated ≈ 6 MB.
func TestSnapshotAllocatesOneChunk(t *testing.T) {
	img := residentImage(25_000, 2)
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Snapshot(img); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Snapshot of %d residents allocated %d B", len(img.Persons), got)
	if got >= bound {
		t.Fatalf("one Snapshot of %d residents allocated %d B; want < %d", len(img.Persons), got, bound)
	}
}
