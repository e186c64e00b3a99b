package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// rowBoundaryValues are the cell values at which a zigzagged varint changes
// width (1, 2, 3 and 4 bytes), plus the widest.
var rowBoundaryValues = []int64{
	0, 1, -1, 63, -63, 64, -64, -65, 8191, -8192, 8192, -8193,
	1 << 20, -(1 << 20), 1<<20 - 1, 1 << 21, math.MaxInt64, -math.MaxInt64, math.MinInt64,
}

// boundaryRows is one row per boundary value, that value repeated, under
// person IDs that cross the same widths, a row of every value, and a last
// row whose one- and two-byte values end the payload, so the decoder meets
// short values with fewer than three bytes left.
func boundaryRows() Ingest {
	var in Ingest
	persons := []core.PersonID{0, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, math.MaxUint64}
	for i, v := range rowBoundaryValues {
		in.Persons = append(in.Persons, persons[i%len(persons)])
		in.Locals = append(in.Locals, pattern.Pattern{v, v, v})
	}
	in.Persons = append(in.Persons, 7)
	in.Locals = append(in.Locals, pattern.Pattern(slices.Clone(rowBoundaryValues)))
	in.Persons = append(in.Persons, 8)
	in.Locals = append(in.Locals, pattern.Pattern{1, 300})
	return in
}

// referenceRows encodes rows value by value with binary.AppendUvarint: the
// layout writeRows must produce byte for byte.
func referenceRows(in Ingest) []byte {
	b := binary.AppendUvarint(nil, uint64(len(in.Persons)))
	for i, p := range in.Persons {
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(in.Locals[i])))
		for _, v := range in.Locals[i] {
			b = binary.AppendUvarint(b, zigzag(v))
		}
	}
	return b
}

// referenceReadRows is readRows without its fast path: every varint goes
// through reader.uvarint, one value at a time, and the value arena is sized
// and checked the same way. The row decoder must equal it, in values and in
// errors.
func referenceReadRows(payload []byte) (Ingest, error) {
	r := &reader{buf: payload}
	n := r.count(2)
	values := -2 * n
	for _, b := range r.buf[r.off:] {
		if b < 0x80 {
			values++
		}
	}
	arena := make([]int64, max(values, 0))
	var out Ingest
	for i := 0; i < n && r.err == nil; i++ {
		out.Persons = append(out.Persons, core.PersonID(r.uvarint()))
		l := r.count(1)
		if l > len(arena) {
			r.fail(fmt.Errorf("wire: row of %d values where %d remain in the payload", l, len(arena)))
			break
		}
		row := arena[:l:l]
		arena = arena[l:]
		for j := range row {
			row[j] = unzigzag(r.uvarint())
		}
		out.Locals = append(out.Locals, row)
	}
	if err := r.done(); err != nil {
		return Ingest{}, err
	}
	return out, nil
}

// sameDecode fails unless the row decoder and the reference agree on
// payload: the same rows, or errors with the same text.
func sameDecode(t *testing.T, label string, payload []byte) {
	t.Helper()
	got, gotErr := DecodeIngestPayload(payload)
	want, wantErr := referenceReadRows(payload)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, the reference %v", label, gotErr, wantErr)
	}
	if gotErr == nil && (!slices.Equal(got.Persons, want.Persons) || !slices.EqualFunc(got.Locals, want.Locals, pattern.Pattern.Equal)) {
		t.Fatalf("%s: rows differ from the reference decode", label)
	}
}

// TestRowCodecMatchesAppendUvarint pins the row codec's fast paths to the
// plain varint layout: boundary values encode byte for byte as
// binary.AppendUvarint writes them, rowsSize is exact, and they decode back
// to themselves. Encoding through an index list writes exactly the bytes of
// the selected rows encoded on their own.
func TestRowCodecMatchesAppendUvarint(t *testing.T) {
	in := boundaryRows()
	got, err := EncodeIngestPayload(in)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRows(in)
	if !slices.Equal(got, want) {
		t.Fatalf("encoded rows\n%x\nwant\n%x", got, want)
	}
	if n := rowsSize(in.Persons, in.Locals, nil); n != len(want) {
		t.Fatalf("rowsSize = %d, encoded %d bytes", n, len(want))
	}
	for _, rows := range [][]int32{{}, {3}, {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, {20, 19, 1, 1}} {
		var sel Ingest
		for _, i := range rows {
			sel.Persons = append(sel.Persons, in.Persons[i])
			sel.Locals = append(sel.Locals, in.Locals[i])
		}
		got, err := AppendIngestPayload(nil, in, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceRows(sel); !slices.Equal(got, want) || cap(got) != len(want) {
			t.Fatalf("rows %v: encoded\n%x (cap %d)\nwant\n%x", rows, got, cap(got), want)
		}
	}
	out, err := DecodeIngestPayload(got)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Persons, in.Persons) || !slices.EqualFunc(out.Locals, in.Locals, pattern.Pattern.Equal) {
		t.Fatalf("decoded %v %v, want %v %v", out.Persons, out.Locals, in.Persons, in.Locals)
	}
	// Non-minimal varints (a zero continued by 0x80 bytes) are legal input
	// to binary.Uvarint and decode to the same values on both paths.
	padded := []byte{1, 0x85, 0x80, 0x00, 2, 0x80, 0x00, 0x81, 0x80, 0x80, 0x00}
	sameDecode(t, "non-minimal varints", padded)
}

// TestRowCodecCutsFailAsReference: a row payload cut at every byte, or with
// one byte overwritten by a varint continuation, an end byte or a 0xff,
// decodes to the same rows or the same error as the one-value-at-a-time
// reference decoder.
func TestRowCodecCutsFailAsReference(t *testing.T) {
	payload, err := EncodeIngestPayload(boundaryRows())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(payload); cut++ {
		sameDecode(t, fmt.Sprintf("cut at %d of %d", cut, len(payload)), payload[:cut])
	}
	for i := range payload {
		for _, b := range []byte{0x80, 0x00, 0xff} {
			mutated := slices.Clone(payload)
			mutated[i] = b
			sameDecode(t, fmt.Sprintf("byte %d set to %#x", i, b), mutated)
		}
	}
}

var ingestSink Ingest

// BenchmarkIngestCodec is the row codec at bulk-load size: one ingest of
// 25 000 length-24 rows, what each of 16 stations receives when 200 000
// persons are placed at R = 2. Values are uniform in [0, 1 000 000), so
// most cells zigzag to three varint bytes.
func BenchmarkIngestCodec(b *testing.B) {
	const rows, length = 25_000, 24
	rng := rand.New(rand.NewSource(1))
	in := Ingest{Persons: make([]core.PersonID, rows), Locals: make([]pattern.Pattern, rows)}
	for i := range in.Persons {
		in.Persons[i] = core.PersonID(1 + 8*i)
		in.Locals[i] = make(pattern.Pattern, length)
		for j := range in.Locals[i] {
			in.Locals[i][j] = rng.Int63n(1_000_000)
		}
	}
	m, err := EncodeIngest(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(m.Payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			messageSink, _ = EncodeIngest(in)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(m.Payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ingestSink, _ = DecodeIngest(m)
		}
	})
}
