package wire

import (
	"runtime"
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
		Tolerance:      core.ToleranceScaled,
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
	if got.Params() != f.Params() {
		t.Fatalf("params: %+v vs %+v", got.Params(), f.Params())
	}
	if got.Length() != f.Length() || got.Inserted() != f.Inserted() {
		t.Fatal("length/inserted lost")
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
	params := core.Params{Bits: 1 << 10, Hashes: 4, Samples: 5, Epsilon: 2, Tolerance: core.ToleranceAbsolute, Seed: 5}
	m := EncodeBFQuery(BFQuery{Filter: bf, Params: params, Length: 9})
	got, err := DecodeBFQuery(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != params || got.Length != 9 {
		t.Fatalf("params/length lost: %+v", got)
	}
	if got.Filter.N() != bf.N() {
		t.Fatal("insert count lost")
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
	in := BFMatches{Station: 3, Persons: []core.PersonID{5, 1, 1 << 50}}
	got, err := DecodeBFMatches(EncodeBFMatches(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != 3 || len(got.Persons) != 3 {
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
		func(m Message) error {
			_, err := DecodeDumpReply(Message{Kind: KindDumpReply, Payload: m.Payload})
			return err
		},
		func(m Message) error { _, err := DecodeDump(Message{Kind: KindDump, Payload: m.Payload}); return err },
		func(m Message) error {
			_, err := DecodeIngest(Message{Kind: KindIngest, Payload: m.Payload})
			return err
		},
		func(m Message) error { _, err := DecodeEvict(Message{Kind: KindEvict, Payload: m.Payload}); return err },
		func(m Message) error {
			_, err := DecodeStatsReply(Message{Kind: KindStatsReply, Payload: m.Payload})
			return err
		},
		func(m Message) error { _, err := DecodeAck(Message{Kind: KindAck, Payload: m.Payload}); return err },
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

func TestIngestRoundTrip(t *testing.T) {
	in := Ingest{
		Persons: []core.PersonID{3, 1, 400},
		Locals:  []pattern.Pattern{{1, -2, 3}, {0, 0, 7}, {9, 9, 9}},
	}
	m, err := EncodeIngest(in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindIngest {
		t.Fatalf("kind = %v", m.Kind)
	}
	got, err := DecodeIngest(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Persons) != len(in.Persons) {
		t.Fatalf("got %v", got.Persons)
	}
	for i, p := range in.Persons {
		if got.Persons[i] != p {
			t.Fatalf("person %d: got %v, want %v", i, got.Persons, in.Persons)
		}
		for j, v := range in.Locals[i] {
			if got.Locals[i][j] != v {
				t.Fatalf("local %d: got %v, want %v", i, got.Locals[i], in.Locals[i])
			}
		}
	}
	if _, err := EncodeIngest(Ingest{Persons: []core.PersonID{1}}); err == nil {
		t.Fatal("mismatched persons/locals accepted")
	}
	if _, err := DecodeIngest(Message{Kind: KindDump}); err == nil {
		t.Fatal("wrong kind accepted")
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
	in := Ingest{Persons: make([]core.PersonID, rows), Locals: make([]pattern.Pattern, rows)}
	for i := range in.Persons {
		in.Persons[i] = core.PersonID(100_000 + i)
		in.Locals[i] = make(pattern.Pattern, length)
		for j := range in.Locals[i] {
			in.Locals[i][j] = int64(20_000 + 37*i + j) // zigzags to three bytes
		}
	}
	allocated := func(f func()) (bytes, allocs uint64) {
		var before, after runtime.MemStats
		runtime.GC() // the counters are process-wide: start from a quiet collector
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}

	var payload []byte
	encBytes, encAllocs := allocated(func() { payload, _ = EncodeIngestPayload(in) })
	if len(payload) < 3*rows*length || cap(payload) != len(payload) {
		t.Fatalf("payload len %d cap %d: want three-byte values and an exact buffer", len(payload), cap(payload))
	}
	if slack := uint64(len(payload)) / 8; encBytes > uint64(len(payload))+slack || encAllocs > 2 {
		t.Fatalf("encoding a %d byte payload allocated %d bytes in %d allocations", len(payload), encBytes, encAllocs)
	}
	var reply Message
	dumpBytes, dumpAllocs := allocated(func() {
		reply, _ = EncodeDumpReply(DumpReply{Station: 3, Persons: in.Persons, Locals: in.Locals})
	})
	if slack := uint64(len(reply.Payload)) / 8; dumpBytes > uint64(len(reply.Payload))+slack || dumpAllocs > 2 {
		t.Fatalf("encoding a %d byte dump reply allocated %d bytes in %d allocations", len(reply.Payload), dumpBytes, dumpAllocs)
	}

	held := uint64(rows * (8*length + 8 + 24)) // cells, person, row header
	for name, decode := range map[string]func() ([]pattern.Pattern, error){
		"ingest": func() ([]pattern.Pattern, error) {
			out, err := DecodeIngestPayload(payload)
			return out.Locals, err
		},
		"dump reply": func() ([]pattern.Pattern, error) {
			out, err := DecodeDumpReply(reply)
			return out.Locals, err
		},
	} {
		var locals []pattern.Pattern
		var err error
		decBytes, decAllocs := allocated(func() { locals, err = decode() })
		if err != nil || len(locals) != rows || !locals[rows-1].Equal(in.Locals[rows-1]) {
			t.Fatalf("%s decode: %d rows, %v", name, len(locals), err)
		}
		if decBytes > held+held/8 || decAllocs > 8 {
			t.Fatalf("%s decode allocated %d bytes in %d allocations to hold %d", name, decBytes, decAllocs, held)
		}
	}
}

func TestEvictRoundTrip(t *testing.T) {
	got, err := DecodeEvict(EncodeEvict(Evict{Persons: []core.PersonID{50, 2, 2000}}))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.PersonID{2, 50, 2000} // sorted by the delta encoding
	if len(got.Persons) != len(want) {
		t.Fatalf("got %v", got.Persons)
	}
	for i := range want {
		if got.Persons[i] != want[i] {
			t.Fatalf("got %v, want %v", got.Persons, want)
		}
	}
	if _, err := DecodeEvict(Message{Kind: KindDump}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestStatsAckRoundTrip(t *testing.T) {
	s := StatsReply{Station: 9, Residents: 1234, StorageBytes: 98765, Length: 8}
	gotS, err := DecodeStatsReply(EncodeStatsReply(s))
	if err != nil || gotS != s {
		t.Fatalf("stats reply: got %+v, %v; want %+v", gotS, err, s)
	}
	a := Ack{Station: 3, Applied: 17}
	gotA, err := DecodeAck(EncodeAck(a))
	if err != nil || gotA != a {
		t.Fatalf("ack: got %+v, %v; want %+v", gotA, err, a)
	}
	if _, err := DecodeStatsReply(Message{Kind: KindAck}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := DecodeAck(Message{Kind: KindStatsReply}); err == nil {
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
