package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// Worked records, the persistence counterparts of docs/WIRE.md's worked
// frames (see ARCHITECTURE.md "Station persistence"). Each is a framed
// record: length u32 LE | crc32(IEEE over kind+body) LE | kind u8 | body.
const (
	// An ingest record: persons 7 and 9 with patterns [3,-1,4] and [2,2,2]
	// (the body is exactly wire.EncodeRows's output).
	workedIngestRecordHex = "0c0000007df0ab94010207030601080903040404"
	// An evict record: persons {7, 9}, sorted and delta-encoded.
	workedEvictRecordHex = "040000001234862902020702"
	// A complete snapshot: header "D1SN" v1, one resident chunk (person 7,
	// pattern [3,-1,4]) and the seal (1 resident).
	workedSnapshotHex = "4431534e01070000009e2d412411010703060108090000009099da591f0100000000000000"
)

func mustHex(t interface{ Fatalf(string, ...any) }, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex constant: %v", err)
	}
	return b
}

// TestWorkedRecordHex pins the worked constants to the live encoders, so the
// documented hex cannot drift from what the store actually writes.
func TestWorkedRecordHex(t *testing.T) {
	inBody, err := wire.EncodeRows(nil, []core.PersonID{7, 9}, []pattern.Pattern{{3, -1, 4}, {2, 2, 2}}, nil, 0, nil)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	if got := appendRecord(nil, recIngest, inBody); !bytes.Equal(got, mustHex(t, workedIngestRecordHex)) {
		t.Errorf("worked ingest record drifted:\n got %x\nwant %s", got, workedIngestRecordHex)
	}
	evBody := wire.EncodePersons([]core.PersonID{9, 7})
	if got := appendRecord(nil, recEvict, evBody); !bytes.Equal(got, mustHex(t, workedEvictRecordHex)) {
		t.Errorf("worked evict record drifted:\n got %x\nwant %s", got, workedEvictRecordHex)
	}
}

// typedRecordErr reports whether err is one of the package's typed decode
// errors — the only failures a corrupt record may produce.
func typedRecordErr(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrBadLength) ||
		errors.Is(err, ErrTooLarge) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrBadKind) || errors.Is(err, ErrBadSnapshot)
}

// FuzzWALRecord hammers the record frame decoder: arbitrary bytes must
// either fail with a typed error or decode into a batch that re-encodes and
// re-decodes to the same value — and must never panic or allocate off a
// corrupt length field (readRecord only ever aliases its input).
func FuzzWALRecord(f *testing.F) {
	f.Add(mustHex(f, workedIngestRecordHex))
	f.Add(mustHex(f, workedEvictRecordHex))
	// A torn tail and a flipped CRC byte, straight from the matrix the crash
	// tests replay.
	f.Add(mustHex(f, workedIngestRecordHex)[:7])
	corrupt := mustHex(f, workedEvictRecordHex)
	corrupt[5] ^= 0x40
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, n, err := readRecord(data)
		if err != nil {
			if !typedRecordErr(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// The frame is intact; the body must decode cleanly or fail typed
		// (wire decode errors are wrapped but never panic), and a decodable
		// batch must survive an encode/decode roundtrip.
		batch, err := decodeBatch[pattern.Pattern](kind, body)
		cells, cellErr := decodeBatch[[]int32](kind, body)
		sameCells(t, batch.Locals, err, cells.Locals, cellErr)
		if err != nil {
			return
		}
		if cellErr != nil && !slices.ContainsFunc(batch.Locals, func(l pattern.Pattern) bool { return !l.InRange() }) {
			t.Fatalf("int32 decode refused a record of in-range rows: %v", cellErr)
		}
		k2, body2, err := encodeBatch(batch)
		if err != nil {
			t.Fatalf("re-encoding decoded batch: %v", err)
		}
		batch2, err := decodeBatch[pattern.Pattern](k2, body2)
		if err != nil {
			t.Fatalf("re-decoding encoded batch: %v", err)
		}
		if !reflect.DeepEqual(normalizeBatch(batch), normalizeBatch(batch2)) {
			t.Fatalf("batch roundtrip drifted:\n in  %+v\n out %+v", batch, batch2)
		}
	})
}

// normalizeBatch maps empty slices to nil so DeepEqual compares values, not
// allocation accidents.
func normalizeBatch(b store.Batch) store.Batch {
	if len(b.Persons) == 0 {
		b.Persons = nil
	}
	if len(b.Locals) == 0 {
		b.Locals = nil
	}
	return b
}

// FuzzSnapshot hammers the snapshot loader: arbitrary bytes must either fail
// with a typed error or yield a well-formed image (persons strictly
// ascending, locals parallel, no all-zero patterns) — never panic, never
// trust a corrupt length or seal.
func FuzzSnapshot(f *testing.F) {
	f.Add(mustHex(f, workedSnapshotHex))
	// Header-only, truncated mid-record, and a flipped seal count.
	f.Add(mustHex(f, workedSnapshotHex)[:5])
	f.Add(mustHex(f, workedSnapshotHex)[:20])
	sealFlip := mustHex(f, workedSnapshotHex)
	sealFlip[len(sealFlip)-8] ^= 0x01
	f.Add(sealFlip)
	// Snapshots carrying a retired 0x12 digest record, which the loader
	// refuses: adaptive (hash count 0) and static.
	f.Add(mustHex(f, adaptedSnapshotHex))
	f.Add(mustHex(f, staticSnapshotHex))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeSnapshot[pattern.Pattern](data)
		cells, cellErr := decodeSnapshot[[]int32](data)
		sameCells(t, img.Locals, err, cells.Locals, cellErr)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("snapshot decode error not typed ErrBadSnapshot: %v", err)
			}
			return
		}
		if len(img.Persons) != len(img.Locals) {
			t.Fatalf("decoded %d persons but %d locals", len(img.Persons), len(img.Locals))
		}
		for i := range img.Persons {
			if i > 0 && img.Persons[i] <= img.Persons[i-1] {
				t.Fatalf("persons not strictly ascending at %d: %v", i, img.Persons[i])
			}
			if img.Locals[i].Sum() == 0 {
				t.Fatalf("all-zero pattern for person %d survived the fold", img.Persons[i])
			}
		}
		// A decodable snapshot must roundtrip through the encoder.
		var re bytes.Buffer
		if err := writeSnapshot(&re, img); err != nil {
			t.Fatalf("re-encoding decoded snapshot: %v", err)
		}
		img2, err := decodeSnapshot[pattern.Pattern](re.Bytes())
		if err != nil {
			t.Fatalf("re-decoding encoded snapshot: %v", err)
		}
		if !reflect.DeepEqual(imgResidents(img), imgResidents(img2)) {
			t.Fatal("snapshot residents drifted through a roundtrip")
		}
	})
}

func imgResidents(img store.Image) store.Image {
	return store.Image{Persons: img.Persons, Locals: img.Locals}
}

// sameCells holds a station's int32 decode of some bytes to the Pattern
// decode of the same bytes: both fail, or the int32 one holds the same
// values, or it alone fails, with wire.ErrCellRange.
func sameCells(t *testing.T, wide []pattern.Pattern, err error, cells [][]int32, cellErr error) {
	t.Helper()
	switch {
	case err != nil:
		if cellErr == nil {
			t.Fatalf("int32 decode took what the Pattern decode refused (%v)", err)
		}
	case cellErr != nil:
		if !errors.Is(cellErr, wire.ErrCellRange) {
			t.Fatalf("int32 decode failed on bytes the Pattern decode took: %v", cellErr)
		}
	default:
		if len(cells) != len(wide) {
			t.Fatalf("int32 decode gave %d rows, the Pattern decode %d", len(cells), len(wide))
		}
		for i, l := range cells {
			if !widen(l).Equal(wide[i]) {
				t.Fatalf("row %d: int32 decode %v, Pattern decode %v", i, l, wide[i])
			}
		}
	}
}
