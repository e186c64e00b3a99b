package wire

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"dimatch/internal/bloom"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

func buildFilter(t *testing.T) *core.Filter {
	t.Helper()
	params := core.Params{
		Bits:           1 << 12,
		Hashes:         3,
		Samples:        3,
		Epsilon:        1,
		Seed:           99,
		PositionSalted: true,
	}
	enc, err := core.NewEncoder(params, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 7, Locals: []pattern.Pattern{{4, 0, 4}}},
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Filter()
}

// encodeBuiltFilter renders buildFilter's two-query filter as a batch query.
func encodeBuiltFilter(t *testing.T, f *core.Filter) Message {
	t.Helper()
	m, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 7}, Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFilterRoundTrip checks the WBF layout inside a batch query: every
// field survives, and the decoded filter matches exactly like the original.
func TestFilterRoundTrip(t *testing.T) {
	f := buildFilter(t)
	bq, err := DecodeBatchQuery(encodeBuiltFilter(t, f))
	if err != nil {
		t.Fatal(err)
	}
	got := bq.Filter
	if want := f.Params(); got.Params() != want || want.Epsilon != 0 {
		t.Fatalf("params: %+v vs %+v, want ε 0 on both", got.Params(), want)
	}
	if got.Length() != f.Length() {
		t.Fatal("length lost")
	}
	if len(got.Weights()) != len(f.Weights()) {
		t.Fatal("weight table size changed")
	}
	for i, w := range f.Weights() {
		if got.Weights()[i] != w {
			t.Fatalf("weight %d: %+v vs %+v", i, got.Weights()[i], w)
		}
	}
	// Matching behaviour is preserved: the decoded filter gives identical
	// verdicts on a probe sweep.
	m1 := core.NewMatcher(f)
	m2 := core.NewMatcher(got)
	for _, cand := range []pattern.Pattern{{1, 2, 3}, {2, 2, 2}, {3, 4, 5}, {4, 0, 4}, {9, 9, 9}, {0, 0, 1}} {
		ids1, ok1, err1 := m1.Match(cand)
		ids2, ok2, err2 := m2.Match(cand)
		if (err1 == nil) != (err2 == nil) || ok1 != ok2 || len(ids1) != len(ids2) {
			t.Fatalf("verdict diverged for %v", cand)
		}
		for i := range ids1 {
			if ids1[i] != ids2[i] {
				t.Fatalf("weights diverged for %v", cand)
			}
		}
	}
}

func TestFilterDecodeTruncated(t *testing.T) {
	m := encodeBuiltFilter(t, buildFilter(t))
	for cut := 0; cut < len(m.Payload); cut += 7 {
		trunc := Message{Kind: KindBatchQuery, Payload: m.Payload[:cut]}
		if _, err := DecodeBatchQuery(trunc); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBFQueryRoundTrip(t *testing.T) {
	bf, err := bloom.New(1<<10, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 50; v++ {
		bf.Add(v * 3)
	}
	params := core.Params{Bits: 1 << 10, Hashes: 4, Samples: 5, Epsilon: 2, Seed: 5}
	m := EncodeBFQuery(BFQuery{Filter: bf, Params: params, Length: 9})
	got, err := DecodeBFQuery(m)
	if err != nil {
		t.Fatal(err)
	}
	want := params
	want.Epsilon = 0 // no station reads it: the frame does not carry it
	if got.Params != want || got.Length != 9 {
		t.Fatalf("params/length lost: %+v", got)
	}
	for v := int64(0); v < 200; v++ {
		if got.Filter.Contains(v) != bf.Contains(v) {
			t.Fatalf("verdict diverged for %d", v)
		}
	}
	if _, err := DecodeBFQuery(Message{Kind: KindBFMatches}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestBFMatchesRoundTrip(t *testing.T) {
	in := BFMatches{Persons: []core.PersonID{5, 1, 1 << 50}}
	got, err := DecodeBFMatches(EncodeBFMatches(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Persons) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range in.Persons {
		if got.Persons[i] != in.Persons[i] {
			t.Fatal("persons differ")
		}
	}
	if _, err := DecodeBFMatches(Message{Kind: KindStats}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestDecodersNeverPanicOnMutatedPayloads(t *testing.T) {
	// Stations decode filters from the network; arbitrary corruption must
	// surface as errors, never panics or runaway allocations.
	base := encodeBuiltFilter(t, buildFilter(t))
	decoders := []func(Message) error{
		func(m Message) error { _, err := DecodeBatchQuery(m); return err },
		func(m Message) error {
			_, err := DecodeBFQuery(Message{Kind: KindBFQuery, Payload: m.Payload})
			return err
		},
		func(m Message) error {
			_, err := DecodeBatchReply(Message{Kind: KindBatchReply, Payload: m.Payload})
			return err
		},
		func(m Message) error {
			_, err := DecodeBFMatches(Message{Kind: KindBFMatches, Payload: m.Payload})
			return err
		},
		func(m Message) error { _, _, err := DecodeRows[pattern.Pattern](m.Payload); return err },
		func(m Message) error { _, _, err := DecodeRows[[]int32](m.Payload); return err },
		func(m Message) error { _, err := DecodePersons(m.Payload); return err },
		func(m Message) error {
			_, err := DecodeStatsReply(Message{Kind: KindStatsReply, Payload: m.Payload})
			return err
		},
	}
	// Deterministic byte mutations across the payload.
	for step := 1; step < 97; step += 3 {
		payload := append([]byte(nil), base.Payload...)
		for i := step; i < len(payload); i += 101 {
			payload[i] ^= byte(step)
		}
		m := Message{Kind: KindBatchQuery, Payload: payload}
		for di, dec := range decoders {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder %d panicked on mutation step %d: %v", di, step, r)
					}
				}()
				_ = dec(m) // error or success are both fine; panics are not
			}()
		}
	}
}

func TestTrivialMessages(t *testing.T) {
	if ShutdownMessage().Kind != KindShutdown {
		t.Fatal("ShutdownMessage kind")
	}
	if StatsMessage().Kind != KindStats {
		t.Fatal("StatsMessage kind")
	}
}

// TestIngestRoundTrip: EncodeRows writes the worked ingest body through an
// index list, sized from the caller's summed RowSizes or by itself, and
// DecodeRows reads any row set back; persons and locals of different lengths
// are refused.
func TestIngestRoundTrip(t *testing.T) {
	want := mustHex(t, workedIngestHex)[HeaderSize:]
	rowBytes := 0
	for _, i := range workedShare {
		rowBytes += RowSize(workedPersons[i], workedLocals[i])
	}
	for _, size := range []int{rowBytes, 0} {
		var heard []int
		got, err := EncodeRows(nil, workedPersons, workedLocals, workedShare, size, func(i int) { heard = append(heard, i) })
		if err != nil || !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("rowBytes %d: body %x (cap %d, err %v), want exactly %x", size, got, cap(got), err, want)
		}
		if !slices.Equal(heard, []int{0, 2}) {
			t.Fatalf("rowBytes %d: each heard %v, want [0 2]", size, heard)
		}
	}

	inPersons := []core.PersonID{3, 1, 400}
	inLocals := []pattern.Pattern{{1, -2, 3}, {0, 0, 7}, {9, 9, 9}}
	payload, err := EncodeRows(nil, inPersons, inLocals, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	persons, locals, err := DecodeRows[pattern.Pattern](payload)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(persons, inPersons) || !slices.EqualFunc(locals, inLocals, pattern.Pattern.Equal) {
		t.Fatalf("got %v %v, want %v %v", persons, locals, inPersons, inLocals)
	}
	if _, err := EncodeRows(nil, []core.PersonID{1}, []pattern.Pattern(nil), nil, 0, nil); err == nil {
		t.Fatal("mismatched persons/locals accepted")
	}
}

// TestRowCodecAllocatesWhatItHolds: a bulk ingest or dump is megabytes of
// three-byte varints, and both directions are sized before the first value
// moves — the encoder's buffer to the byte (it used to grow by doubling from
// nothing), the decoder's arena to the value (it used to reserve one slot per
// payload byte, three times the cells, and a dump reply one allocation per
// row). Counted, not timed: bytes and allocations per call.
func TestRowCodecAllocatesWhatItHolds(t *testing.T) {
	const rows, length = 2000, 24
	persons, locals := make([]core.PersonID, rows), make([]pattern.Pattern, rows)
	cells := make([][]int32, rows)
	for i := range persons {
		persons[i] = core.PersonID(100_000 + i)
		locals[i], cells[i] = make(pattern.Pattern, length), make([]int32, length)
		for j := range locals[i] {
			cells[i][j] = int32(20_000 + 37*i + j) // zigzags to three bytes
			locals[i][j] = int64(cells[i][j])
		}
	}
	// The counters are process-wide, so another goroutine allocating meanwhile
	// (the test runner's own bookkeeping, under -race) only inflates them: the
	// least of a few quiet-collector readings is f's own cost.
	allocated := func(f func()) (bytes, allocs uint64) {
		bytes, allocs = math.MaxUint64, math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			bytes, allocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(allocs, after.Mallocs-before.Mallocs)
		}
		return bytes, allocs
	}

	var payload []byte
	encBytes, encAllocs := allocated(func() { payload, _ = EncodeRows(nil, persons, locals, nil, 0, nil) })
	if len(payload) < 3*rows*length || cap(payload) != len(payload) {
		t.Fatalf("payload len %d cap %d: want three-byte values and an exact buffer", len(payload), cap(payload))
	}
	if slack := uint64(len(payload)) / 8; encBytes > uint64(len(payload))+slack || encAllocs > 2 {
		t.Fatalf("encoding a %d byte payload allocated %d bytes in %d allocations", len(payload), encBytes, encAllocs)
	}
	var reply []byte
	dumpBytes, dumpAllocs := allocated(func() { reply, _ = EncodeRows(nil, persons, cells, nil, 0, nil) })
	if !bytes.Equal(reply, payload) {
		t.Fatal("int32 rows encoded other bytes than the same Pattern rows")
	}
	if slack := uint64(len(reply)) / 8; dumpBytes > uint64(len(reply))+slack || dumpAllocs > 2 {
		t.Fatalf("encoding a %d byte dump reply allocated %d bytes in %d allocations", len(reply), dumpBytes, dumpAllocs)
	}

	held := uint64(rows * (8*length + 8 + 24)) // cells, person, row header
	for name, decode := range map[string]func() ([]pattern.Pattern, error){
		"ingest": func() ([]pattern.Pattern, error) {
			_, got, err := DecodeRows[pattern.Pattern](payload)
			return got, err
		},
		"dump reply": func() ([]pattern.Pattern, error) {
			_, got, err := DecodeRows[pattern.Pattern](reply)
			return got, err
		},
	} {
		var got []pattern.Pattern
		var err error
		decBytes, decAllocs := allocated(func() { got, err = decode() })
		if err != nil || len(got) != rows || !got[rows-1].Equal(locals[rows-1]) {
			t.Fatalf("%s decode: %d rows, %v", name, len(got), err)
		}
		if decBytes > held+held/8 || decAllocs > 8 {
			t.Fatalf("%s decode allocated %d bytes in %d allocations to hold %d", name, decBytes, decAllocs, held)
		}
	}
}

// TestEvictRoundTrip: a person list is sent sorted, whatever the caller's
// order, and leaves the caller's slice as it was.
func TestEvictRoundTrip(t *testing.T) {
	in := []core.PersonID{50, 2, 2000}
	got, err := DecodePersons(EncodePersons(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.PersonID{2, 50, 2000}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !slices.Equal(in, []core.PersonID{50, 2, 2000}) {
		t.Fatalf("caller's list reordered to %v", in)
	}
	if !bytes.Equal(EncodePersons([]core.PersonID{9, 7}), mustHex(t, workedEvictHex)[HeaderSize:]) {
		t.Fatal("person list drifted from the worked evict body")
	}
}

func TestStatsAckRoundTrip(t *testing.T) {
	s := StatsReply{Residents: 1234, StorageBytes: 98765, Length: 8, Seq: 1 << 40}
	gotS, err := DecodeStatsReply(EncodeStatsReply(s))
	if err != nil || gotS != s {
		t.Fatalf("stats reply: got %+v, %v; want %+v", gotS, err, s)
	}
	if _, err := DecodeStatsReply(Message{Kind: KindIngest}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestBatchQueryCompactness(t *testing.T) {
	// The dissemination message must be far smaller than the naive shipment
	// of even a modest station's data — the whole point of the scheme.
	m := encodeBuiltFilter(t, buildFilter(t))
	if m.EncodedSize() > 1<<16 {
		t.Fatalf("WBF query frame unexpectedly large: %d bytes", m.EncodedSize())
	}
}
