package wire

import (
	"bytes"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// encodePersons and decodePersons name the person-list codec beside
// writeRows and readRows, the unexported row-set codec, for
// TestWorkedIngestDumpEvictHex.
var encodePersons, decodePersons = EncodePersons, DecodePersons

func TestDumpRoundTrip(t *testing.T) {
	payload := EncodePersons([]core.PersonID{90, 4, 17})
	if !bytes.Equal(payload, mustHex(t, workedDumpHex)[HeaderSize:]) {
		t.Fatalf("dump body %x drifted from the worked frame", payload)
	}
	out, err := DecodePersons(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.PersonID{4, 17, 90}; !slices.Equal(out, want) { // sent sorted
		t.Fatalf("got %v, want %v", out, want)
	}

	// Empty filter means "everything" and must round-trip as empty.
	all, err := DecodePersons(EncodePersons(nil))
	if err != nil {
		t.Fatal(err)
	}
	if all != nil {
		t.Fatalf("empty dump decoded %v, want nil", all)
	}
}

// TestDumpReplyRoundTrip: a station's int32 rows encode to the worked dump
// reply's body, the bytes the same rows in Pattern cells encode to, and
// decode back in either cell type.
func TestDumpReplyRoundTrip(t *testing.T) {
	persons := []core.PersonID{1, 5}
	cells := [][]int32{{1, -2, 3}, {0, 4, 0}}
	want := []pattern.Pattern{{1, -2, 3}, {0, 4, 0}}
	payload, err := EncodeRows(nil, persons, cells, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, mustHex(t, workedDumpReplyHex)[HeaderSize:]) {
		t.Fatalf("dump-reply body %x drifted from the worked frame", payload)
	}
	if wide, err := EncodeRows(nil, persons, want, nil, 0, nil); err != nil || !bytes.Equal(wide, payload) {
		t.Fatalf("Pattern rows encoded %x (%v), want %x", wide, err, payload)
	}
	gotPersons, got, err := DecodeRows[pattern.Pattern](payload)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotPersons, persons) || !slices.EqualFunc(got, want, pattern.Pattern.Equal) {
		t.Fatalf("got %v %v, want %v %v", gotPersons, got, persons, want)
	}
	_, gotCells, err := DecodeRows[[]int32](payload)
	if err != nil || !slices.EqualFunc(gotCells, cells, slices.Equal[[]int32]) {
		t.Fatalf("int32 rows %v (%v), want %v", gotCells, err, cells)
	}
}

// TestDumpDecodeCorrupt: truncations and bit flips fail with errors, never
// panic — the same guarantee the other decoders give.
func TestDumpDecodeCorrupt(t *testing.T) {
	payload, err := EncodeRows(nil, []core.PersonID{1, 2, 9}, []pattern.Pattern{{5, 6}, {7, 8}, {9, 10}}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		// A prefix could decode as a valid shorter row set only if it ended
		// on a row boundary AND the count matched; the count is fixed at 3.
		if _, _, err := DecodeRows[pattern.Pattern](payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for i := 0; i < len(payload); i++ {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xff
		_, _, _ = DecodeRows[pattern.Pattern](mut) // must not panic
	}
}
