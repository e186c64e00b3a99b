package wire

import (
	"encoding/hex"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// Worked frames of the two bodies every raw-pattern exchange shares, byte for
// byte, each stamped with request 42:
//
//   - a KindIngest of rows 0 and 2 of the row set {3: {1, -2, 3}, 7: {0, 0},
//     200: {64, -65, 70000}}, a station's share of one grouped ingest: the
//     count, then per row the person, the length and the zigzagged values
//     (64, -65 and 70000 zigzag to 128, 129 and 140000: two, two and three
//     varint bytes);
//   - a KindDumpReply of the int32 rows {1: {1, -2, 3}, 5: {0, 4, 0}};
//   - a KindDump of the persons {90, 4, 17}: the count, then the IDs
//     ascending as deltas 4, 13, 73;
//   - a KindEvict of the persons {9, 7}: deltas 7, 2.
const (
	workedIngestHex = "a7d114092a000000" + "10000000" +
		"02" + "0303020306" + "c8010380018101e0c508"
	workedDumpReplyHex = "a7d114112a000000" + "0b000000" +
		"02" + "0103020306" + "0503000800"
	workedDumpHex  = "a7d114102a000000" + "04000000" + "03040d49"
	workedEvictHex = "a7d1140a2a000000" + "03000000" + "020702"
)

// workedPersons and workedLocals are the row set of workedIngestHex;
// workedShare names the rows its frame carries.
var (
	workedPersons = []core.PersonID{3, 7, 200}
	workedLocals  = []pattern.Pattern{{1, -2, 3}, {0, 0}, {64, -65, 70000}}
	workedShare   = []int32{0, 2}
)

// TestWorkedIngestDumpEvictHex pins the row-set body (ingest, dump reply)
// and the person-list body (dump, evict) to their writers and readers. The
// ingest is written through an index list into a buffer sized from its rows'
// summed RowSize, which it fills exactly; the dump reply is written from
// int32 rows. Each frame decodes back to what was written.
func TestWorkedIngestDumpEvictHex(t *testing.T) {
	frame := func(kind Kind, payload []byte) string {
		return hex.EncodeToString(Message{Kind: kind, Payload: payload}.WithRequest(42).Encode())
	}
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s worked frame drifted:\n got %s\nwant %s", name, got, want)
		}
	}

	rowBytes := 0
	for _, i := range workedShare {
		rowBytes += RowSize(workedPersons[i], workedLocals[i])
	}
	size := uvarintLen(uint64(len(workedShare))) + rowBytes
	w := writer{buf: make([]byte, 0, size)}
	var heard []int
	writeRows(&w, workedPersons, workedLocals, workedShare, func(i int) { heard = append(heard, i) })
	if len(w.buf) != size || cap(w.buf) != size {
		t.Errorf("ingest payload is %d bytes in a %d-byte buffer, want exactly the summed %d", len(w.buf), cap(w.buf), size)
	}
	if !slices.Equal(heard, []int{0, 2}) {
		t.Errorf("each heard rows %v, want [0 2]", heard)
	}
	check("ingest", frame(KindIngest, w.buf), workedIngestHex)

	w = writer{}
	writeRows(&w, []core.PersonID{1, 5}, [][]int32{{1, -2, 3}, {0, 4, 0}}, nil, nil)
	check("dump-reply", frame(KindDumpReply, w.buf), workedDumpReplyHex)

	check("dump", frame(KindDump, encodePersons([]core.PersonID{90, 4, 17})), workedDumpHex)
	check("evict", frame(KindEvict, encodePersons([]core.PersonID{9, 7})), workedEvictHex)

	rows := []struct {
		hex     string
		kind    Kind
		persons []core.PersonID
		locals  []pattern.Pattern
	}{
		{workedIngestHex, KindIngest, []core.PersonID{3, 200}, []pattern.Pattern{{1, -2, 3}, {64, -65, 70000}}},
		{workedDumpReplyHex, KindDumpReply, []core.PersonID{1, 5}, []pattern.Pattern{{1, -2, 3}, {0, 4, 0}}},
	}
	for _, c := range rows {
		m, err := Decode(mustHex(t, c.hex))
		if err != nil || m.Kind != c.kind {
			t.Fatalf("%v frame: kind %v, err %v", c.kind, m.Kind, err)
		}
		r := &reader{buf: m.Payload}
		persons, locals := readRows[pattern.Pattern](r)
		if err := r.done(); err != nil {
			t.Fatalf("%v rows: %v", c.kind, err)
		}
		if !slices.Equal(persons, c.persons) || !slices.EqualFunc(locals, c.locals, pattern.Pattern.Equal) {
			t.Errorf("%v rows decoded %v %v, want %v %v", c.kind, persons, locals, c.persons, c.locals)
		}
	}

	lists := []struct {
		hex     string
		kind    Kind
		persons []core.PersonID
	}{
		{workedDumpHex, KindDump, []core.PersonID{4, 17, 90}},
		{workedEvictHex, KindEvict, []core.PersonID{7, 9}},
	}
	for _, c := range lists {
		m, err := Decode(mustHex(t, c.hex))
		if err != nil || m.Kind != c.kind {
			t.Fatalf("%v frame: kind %v, err %v", c.kind, m.Kind, err)
		}
		persons, err := decodePersons(m.Payload)
		if err != nil || !slices.Equal(persons, c.persons) {
			t.Errorf("%v persons decoded %v (err %v), want %v", c.kind, persons, err, c.persons)
		}
	}
}
