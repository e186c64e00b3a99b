package wire

import (
	"encoding/binary"
	"errors"
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

// rowSet is a test's row set: Persons[i]'s pattern is Locals[i].
type rowSet struct {
	Persons []core.PersonID
	Locals  []pattern.Pattern
}

// boundaryRows is one row per boundary value, that value repeated, under
// person IDs that cross the same widths, a row of every value, and a last
// row whose one- and two-byte values end the payload, so the decoder meets
// short values with fewer than three bytes left.
func boundaryRows() rowSet {
	var in rowSet
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
func referenceRows(in rowSet) []byte {
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
func referenceReadRows(payload []byte) (rowSet, error) {
	r := &reader{buf: payload}
	n := r.count(2)
	values := -2 * n
	for _, b := range r.buf[r.off:] {
		if b < 0x80 {
			values++
		}
	}
	arena := make([]int64, max(values, 0))
	var out rowSet
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
		return rowSet{}, err
	}
	return out, nil
}

// sameDecode fails unless the row decoder and the reference agree on
// payload: the same rows, or errors with the same text.
func sameDecode(t *testing.T, label string, payload []byte) {
	t.Helper()
	gotPersons, gotLocals, gotErr := DecodeRows[pattern.Pattern](payload)
	want, wantErr := referenceReadRows(payload)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, the reference %v", label, gotErr, wantErr)
	}
	if gotErr == nil && (!slices.Equal(gotPersons, want.Persons) || !slices.EqualFunc(gotLocals, want.Locals, pattern.Pattern.Equal)) {
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
	got, err := EncodeRows(nil, in.Persons, in.Locals, nil, 0, nil)
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
		var sel rowSet
		for _, i := range rows {
			sel.Persons = append(sel.Persons, in.Persons[i])
			sel.Locals = append(sel.Locals, in.Locals[i])
		}
		got, err := EncodeRows(nil, in.Persons, in.Locals, rows, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceRows(sel); !slices.Equal(got, want) || cap(got) != len(want) {
			t.Fatalf("rows %v: encoded\n%x (cap %d)\nwant\n%x", rows, got, cap(got), want)
		}
	}
	persons, locals, err := DecodeRows[pattern.Pattern](got)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(persons, in.Persons) || !slices.EqualFunc(locals, in.Locals, pattern.Pattern.Equal) {
		t.Fatalf("decoded %v %v, want %v %v", persons, locals, in.Persons, in.Locals)
	}
	// Non-minimal varints (a zero continued by 0x80 bytes) are legal input
	// to binary.Uvarint and decode to the same values on both paths.
	padded := []byte{1, 0x85, 0x80, 0x00, 2, 0x80, 0x00, 0x81, 0x80, 0x80, 0x00}
	sameDecode(t, "non-minimal varints", padded)
}

// TestRowSizesSumToFrame pins RowSize to the frame it sizes: over rows of
// the int32 domain's width boundaries, the count's varint plus the rows'
// RowSizes is rowsSize and the encoded length, whole and through index
// lists, and EncodeRows given that sum writes the bytes it writes when it
// sums the sizes itself, into a buffer of exactly their length.
func TestRowSizesSumToFrame(t *testing.T) {
	values := []int64{0, 63, -63, 64, -64, 8191, -8191, 8192, -8192, 1 << 20, -(1 << 20), math.MinInt32, math.MaxInt32}
	var in rowSet
	for i, v := range values {
		in.Persons = append(in.Persons, core.PersonID(i)<<(3*i))
		in.Locals = append(in.Locals, pattern.Pattern{v, v, v, 0})
	}
	in.Persons = append(in.Persons, math.MaxUint64)
	in.Locals = append(in.Locals, pattern.Pattern(slices.Clone(values)))
	var cells [][]int32
	for _, l := range in.Locals {
		row := make([]int32, len(l))
		for j, v := range l {
			row[j] = int32(v)
		}
		cells = append(cells, row)
	}
	for _, rows := range [][]int32{nil, {}, {3}, {0, 2, 4, 6, 8, 10, 12}, {13, 12, 1, 1}} {
		count, rowBytes := len(in.Persons), 0
		if rows != nil {
			count = len(rows)
		}
		for k := 0; k < count; k++ {
			i := k
			if rows != nil {
				i = int(rows[k])
			}
			if a, b := RowSize(in.Persons[i], in.Locals[i]), RowSize(in.Persons[i], cells[i]); a != b {
				t.Fatalf("row %d: RowSize %d over int64 cells, %d over int32", i, a, b)
			}
			rowBytes += RowSize(in.Persons[i], in.Locals[i])
		}
		want, err := EncodeRows(nil, in.Persons, in.Locals, rows, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		size := uvarintLen(uint64(count)) + rowBytes
		if n := rowsSize(in.Persons, in.Locals, rows); size != n || size != len(want) {
			t.Fatalf("rows %v: count varint + RowSizes = %d, rowsSize %d, encoded %d bytes", rows, size, n, len(want))
		}
		got, err := EncodeRows(nil, in.Persons, in.Locals, rows, rowBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		fromCells, err := EncodeRows(nil, in.Persons, cells, rows, rowBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{got, fromCells} {
			if !slices.Equal(b, want) || cap(b) != len(b) {
				t.Fatalf("rows %v: sized payload\n%x (cap %d)\nwant\n%x", rows, b, cap(b), want)
			}
		}
	}
}

// TestRowCodecCutsFailAsReference: a row payload cut at every byte, or with
// one byte overwritten by a varint continuation, an end byte or a 0xff,
// decodes to the same rows or the same error as the one-value-at-a-time
// reference decoder.
func TestRowCodecCutsFailAsReference(t *testing.T) {
	in := boundaryRows()
	payload, err := EncodeRows(nil, in.Persons, in.Locals, nil, 0, nil)
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

// sameCellDecode fails unless a station's int32 decode of payload agrees
// with the int64 decode: the same rows where every value fits an int32, the
// same error where the int64 decode fails, and a refusal where a value does
// not fit.
func sameCellDecode(t *testing.T, label string, payload []byte) {
	t.Helper()
	widePersons, wide, wideErr := DecodeRows[pattern.Pattern](payload)
	narrowPersons, narrow, narrowErr := DecodeRows[[]int32](payload)
	fits := wideErr == nil
	for _, l := range wide {
		for _, v := range l {
			fits = fits && v >= math.MinInt32 && v <= math.MaxInt32
		}
	}
	switch {
	case wideErr != nil:
		// The int32 decode fails where the int64 one does, or earlier on a
		// value it cannot hold.
		if narrowErr == nil || (narrowErr.Error() != wideErr.Error() && !errors.Is(narrowErr, ErrCellRange)) {
			t.Fatalf("%s: int32 decode error %v, the int64 decode's %v", label, narrowErr, wideErr)
		}
	case !fits:
		if !errors.Is(narrowErr, ErrCellRange) {
			t.Fatalf("%s: int32 decode of a value an int32 cannot hold: %v, want ErrCellRange", label, narrowErr)
		}
	case narrowErr != nil:
		t.Fatalf("%s: int32 decode refused in-range rows: %v", label, narrowErr)
	default:
		if !slices.Equal(narrowPersons, widePersons) || len(narrow) != len(wide) {
			t.Fatalf("%s: int32 decode has other persons", label)
		}
		for i, l := range narrow {
			if len(l) != cap(l) || !slices.Equal(pattern.AppendCells(nil, wide[i]), l) {
				t.Fatalf("%s: row %d decodes to %v in int32 cells, %v in int64", label, i, l, wide[i])
			}
		}
	}
}

// TestCellRowDecoderAgrees: the int32 row decoder a station reads ingest
// frames, WAL records and snapshot chunks with agrees with the int64 one on
// the in-range boundary rows — the widths' edges and the int32 edges — cut at every
// byte and with every byte overwritten as TestRowCodecCutsFailAsReference
// does, and refuses a frame holding 2³¹, −2³¹−1 or a wider value while the
// int64 decoder takes it.
func TestCellRowDecoderAgrees(t *testing.T) {
	var in rowSet
	for i, l := range boundaryRows().Locals {
		row := pattern.Pattern{}
		for _, v := range l {
			if v >= math.MinInt32 && v <= math.MaxInt32 {
				row = append(row, v)
			}
		}
		in.Persons = append(in.Persons, core.PersonID(i))
		in.Locals = append(in.Locals, row)
	}
	in.Persons = append(in.Persons, 99)
	in.Locals = append(in.Locals, pattern.Pattern{math.MaxInt32, math.MinInt32, -math.MaxInt32, 1})
	payload, err := EncodeRows(nil, in.Persons, in.Locals, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeRows[[]int32](payload)
	if err != nil || len(out) != len(in.Locals) {
		t.Fatalf("in-range rows: %d rows, %v", len(out), err)
	}
	for cut := 0; cut <= len(payload); cut++ {
		sameCellDecode(t, fmt.Sprintf("cut at %d of %d", cut, len(payload)), payload[:cut])
	}
	for i := range payload {
		for _, b := range []byte{0x80, 0x00, 0xff} {
			mutated := slices.Clone(payload)
			mutated[i] = b
			sameCellDecode(t, fmt.Sprintf("byte %d set to %#x", i, b), mutated)
		}
	}
	for _, v := range []int64{1 << 31, -(1 << 31) - 1, math.MaxInt64, math.MinInt64} {
		payload, err := EncodeRows(nil, []core.PersonID{1, 2}, []pattern.Pattern{{1, 2}, {3, v}}, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeRows[pattern.Pattern](payload); err != nil {
			t.Fatalf("int64 decode of %d: %v", v, err)
		}
		if _, _, err := DecodeRows[[]int32](payload); !errors.Is(err, ErrCellRange) {
			t.Fatalf("a frame holding %d decoded into int32 cells: %v, want ErrCellRange", v, err)
		}
		sameCellDecode(t, fmt.Sprintf("value %d", v), payload)
	}
}

var (
	bytesSink  []byte
	localsSink []pattern.Pattern
)

// BenchmarkIngestCodec is the row codec at bulk-load size: one ingest of
// 25 000 length-24 rows, what each of 16 stations receives when 200 000
// persons are placed at R = 2. Values are uniform in [0, 1 000 000), so
// most cells zigzag to three varint bytes.
func BenchmarkIngestCodec(b *testing.B) {
	const rows, length = 25_000, 24
	rng := rand.New(rand.NewSource(1))
	in := rowSet{Persons: make([]core.PersonID, rows), Locals: make([]pattern.Pattern, rows)}
	for i := range in.Persons {
		in.Persons[i] = core.PersonID(1 + 8*i)
		in.Locals[i] = make(pattern.Pattern, length)
		for j := range in.Locals[i] {
			in.Locals[i][j] = rng.Int63n(1_000_000)
		}
	}
	payload, err := EncodeRows(nil, in.Persons, in.Locals, nil, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bytesSink, _ = EncodeRows(nil, in.Persons, in.Locals, nil, 0, nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, localsSink, _ = DecodeRows[pattern.Pattern](payload)
		}
	})
}
