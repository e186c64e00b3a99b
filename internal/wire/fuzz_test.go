package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// The worked frames from docs/WIRE.md, byte for byte: a KindBatchQuery
// carrying one query's combined filter, and a KindSummaryReply carrying a
// one-resident routing digest. Seeding the fuzzers with real, documented
// frames means every mutation starts from a fully valid header + payload and
// immediately explores the interesting corrupt-field space instead of
// rediscovering the magic number.
const (
	workedBatchQueryHex = "a7d1140e2a000000" + "17000000" +
		"01" + "010103" + "400202050000000000000000" +
		"02040101" + "1c6472"
	workedSummaryReplyHex = "a7d114132a000000" + "1c000000" +
		"02719a3d0cbfe5a75140000000000000000702" +
		"010389408022142804"
	// A KindBatchReply of three reports on two pointer lists.
	workedBatchReplyHex = "a7d1140f2a000000" + "0c000000" +
		"030203" + "0200020f" + "05010407" + "13"
)

// adaptiveSummaryHex is the summary payload a wire Version 14 station served
// for a digest built under an adaptive parameter plan: hash-count field 0
// (byte 19), the words (ending at byte 54), then the parameter epoch and one
// geometry entry per position. Static digests are the only kind since Version
// 15, so every decoder refuses it.
const adaptiveSummaryHex = "000306719a3d0cbfe5a751000100000000000000120485aaaa04c434700009010413060e783c8000500005200204a0201108412000080140040140040180010401"

// addRetiredSeeds seeds a frame fuzzer with copies of frame re-stamped with
// each version byte earlier builds used (plus the next unassigned one) and
// each retired kind byte — all of which must be rejected at the header.
func addRetiredSeeds(f *testing.F, frame []byte) {
	for _, v := range []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21} { // all but Version
		bad := append([]byte(nil), frame...)
		bad[2] = v
		f.Add(bad)
	}
	for _, k := range []byte{1, 3, 4, 6, 7, 13, 20, 21, 22, 23} {
		bad := append([]byte(nil), frame...)
		bad[3] = k
		f.Add(bad)
	}
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex seed: %v", err)
	}
	return b
}

// FuzzDecode exercises the frame codec: any byte string must either be
// rejected with an error or decode into a message that re-encodes to the
// same bytes and reads back identically through the streaming ReadMessage
// path.
func FuzzDecode(f *testing.F) {
	f.Add(mustHex(f, workedBatchQueryHex))
	f.Add(mustHex(f, workedSummaryReplyHex))
	f.Add(mustHex(f, workedBatchReplyHex))
	f.Add(Message{Kind: KindStats, Request: 7}.Encode())
	f.Add(Message{Kind: KindShutdown}.Encode())
	f.Add(EncodeDump(Dump{Persons: []core.PersonID{1, 2, 3}}).WithRequest(9).Encode())
	f.Add(EncodeStatsReply(StatsReply{Residents: 2, StorageBytes: 48, Length: 3, Seq: 9}).WithRequest(3).Encode())
	// Truncation seeds: a frame cut mid-header and mid-payload.
	full := mustHex(f, workedBatchQueryHex)
	f.Add(full[:7])
	f.Add(full[:20])
	addRetiredSeeds(f, full)
	// A bounded frame, and the same bytes on every superseded header: version
	// 13 had no bound to carry.
	for _, raw := range boundedRawFilters() {
		frame := Message{Kind: KindBatchQuery, Request: 5, Payload: raw.payload()}.Encode()
		f.Add(frame)
		addRetiredSeeds(f, frame)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return // rejected input: nothing further to hold
		}
		if !m.Kind.known() {
			t.Fatalf("decoded unknown kind %d", m.Kind)
		}
		if b[2] != Version {
			t.Fatalf("decoded a frame stamped version %d", b[2])
		}
		// The streaming reader must agree with the one-shot decoder on the
		// exact same bytes.
		ms, err := ReadMessage(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("Decode accepted but ReadMessage rejected: %v", err)
		}
		if ms.Kind != m.Kind || ms.Request != m.Request || !bytes.Equal(ms.Payload, m.Payload) {
			t.Fatalf("ReadMessage disagrees with Decode: %+v vs %+v", ms, m)
		}
		// One version, one header: re-encoding reproduces the accepted
		// bytes exactly.
		if !bytes.Equal(m.Encode(), b) {
			t.Fatalf("re-encode differs from the accepted frame: % x vs % x", m.Encode(), b)
		}
	})
}

// FuzzReadMessage drives the stream decoder with arbitrary bytes: it must
// never panic, and a header declaring more payload than follows must not buy
// memory. For any input below 4 MiB, every input this fuzzer builds, the
// call allocates at most max(4 MiB, 2 × the bytes supplied), plus slack for
// the error it returns. Past 4 MiB the doubling rule allocates buffers 4, 8,
// …, B MiB, B only once B/2 MiB arrived, so the bound is 4 × the bytes.
func FuzzReadMessage(f *testing.F) {
	f.Add(mustHex(f, workedBatchQueryHex))
	f.Add(mustHex(f, workedSummaryReplyHex))
	f.Add(Message{Kind: KindShutdown}.Encode())
	full := mustHex(f, workedBatchQueryHex)
	f.Add(full[:7])
	f.Add(full[:20])
	for _, claim := range []uint32{readChunk - 1, readChunk + 1, MaxPayload} {
		hdr := Message{Kind: KindIngest, Request: 1}.Header()
		binary.LittleEndian.PutUint32(hdr[8:12], claim)
		f.Add(hdr[:])
		f.Add(append(hdr[:], make([]byte, 1000)...))
	}
	addRetiredSeeds(f, full)

	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, b []byte) {
		limit := max(readChunk, 2*len(b))
		if len(b) >= readChunk {
			limit = 4 * len(b)
		}
		r := bytes.NewReader(b)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadMessage(r)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit+slack) {
			t.Fatalf("%d input bytes: ReadMessage allocated %d bytes, want ≤ %d", len(b), got, limit+slack)
		}
		if err != nil {
			return
		}
		if !m.Kind.known() || m.EncodedSize() > len(b) {
			t.Fatalf("accepted %+v from %d bytes", m, len(b))
		}
	})
}

// retiredTop is the highest retired kind; FuzzDecodePayload dispatches over
// every kind up to it.
const retiredTop = 23

// FuzzDecodePayload drives every payload decoder with arbitrary bytes
// under its own kind: decoders must reject garbage with an error (the
// reader's count guard bounds allocations), never panic, and — for the
// fixed-shape payloads — survive a decode/encode/decode roundtrip. A batch
// query decodes into used destinations exactly as into a fresh one. A
// retired kind has no decoder: its frame must be refused at the header.
func FuzzDecodePayload(f *testing.F) {
	// Payloads of the worked frames (frame header stripped).
	f.Add(uint8(KindBatchQuery)-1, mustHex(f, workedBatchQueryHex)[12:])
	f.Add(uint8(KindSummaryReply)-1, mustHex(f, workedSummaryReplyHex)[12:])
	f.Add(uint8(KindDump)-1, EncodeDump(Dump{Persons: []core.PersonID{1, 2, 3}}).Payload)
	f.Add(uint8(KindEvict)-1, EncodeEvict(Evict{Persons: []core.PersonID{9, 10}}).Payload)
	f.Add(uint8(KindStatsReply)-1, EncodeStatsReply(StatsReply{Residents: 5, StorageBytes: 80, Length: 24}).Payload)
	f.Add(uint8(KindStatsReply)-1, EncodeStatsReply(StatsReply{Residents: 2, StorageBytes: 48, Length: 3, Seq: 300}).Payload)
	f.Add(uint8(KindStatsReply)-1, append(varints(3, 5, 80, 24), 1, 0xac, 0x02)) // Version 17's layout, with a flags byte before Seq
	f.Add(uint8(KindBFMatches)-1, EncodeBFMatches(BFMatches{Persons: []core.PersonID{11}}).Payload)
	dr, err := EncodeDumpReply(DumpReply{Persons: []core.PersonID{4}, Locals: []pattern.Pattern{{1, 2, 3}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(KindDumpReply)-1, dr.Payload)
	f.Add(uint8(5), dr.Payload) // dispatches to retired kind 6, which carried this payload
	f.Add(uint8(KindDump)-1, EncodeDump(Dump{}).Payload)
	// Version 19's layouts of the replies that carried a station first, the
	// summary its resident count after its length besides.
	f.Add(uint8(KindDumpReply)-1, append(varints(1), dr.Payload...))
	f.Add(uint8(KindStatsReply)-1, varints(3, 5, 80, 24, 9))
	f.Add(uint8(KindBFMatches)-1, varints(2, 1, 11))
	f.Add(uint8(KindSummaryReply)-1, mustHex(f, "030201719a3d0cbfe5a75140000000000000000702010389408022142804"))
	// The retired kind bytes (the dispatch below maps seed byte b to kind
	// b%retiredTop+1).
	for _, b := range []uint8{0, 2, 3, 5, 6, 12, 19, 20, 21, 22} {
		f.Add(b, mustHex(f, workedBatchQueryHex)[12:])
	}
	// The filter block's rejection matrix: two valid hand-spelled filters, one
	// of MaxBits, and one payload per property the decoder enforces.
	f.Add(uint8(KindBatchQuery)-1, validRawFilter().payload())
	f.Add(uint8(KindBatchQuery)-1, maxBitsFilter().payload())
	for _, tt := range hostileFilters() {
		raw := validRawFilter()
		tt.mutate(&raw)
		f.Add(uint8(KindBatchQuery)-1, raw.payload())
	}
	f.Add(uint8(KindBatchReply)-1, EncodeBatchReply(BatchReply{Station: 3, Queries: 1, Reports: []core.Report{
		{Person: 900, WeightIDs: []core.WeightID{0}}, {Person: 901, WeightIDs: []core.WeightID{0, 2}}, {Person: 7, WeightIDs: []core.WeightID{1}},
	}}).Payload)
	// The worked reply, then one payload per rule the reply decoder enforces.
	f.Add(uint8(KindBatchReply)-1, mustHex(f, workedBatchReplyHex)[12:])
	for _, tt := range hostileReplies() {
		f.Add(uint8(KindBatchReply)-1, tt.payload())
	}
	// Every field a decoder keeps in 32 bits, sent wider.
	for _, tt := range wideFields() {
		f.Add(uint8(tt.kind)-1, tt.build(1<<32+7))
	}
	// Person bounds on the query frame: From only, To only, both, and the
	// refusals — To ≤ From, an end sent as 0, an undefined flag bit.
	for _, b := range []struct {
		flags uint8
		bound []uint64
	}{
		{flagFrom, []uint64{300}}, {flagTo, []uint64{1 << 20}}, {flagFrom | flagTo, []uint64{7, 8}},
		{flagFrom | flagTo, []uint64{9, 9}}, {flagFrom | flagTo, []uint64{9, 4}},
		{flagFrom, []uint64{0}}, {flagTo, []uint64{0}}, {1 << 3, nil},
	} {
		raw := validRawFilter()
		raw.flags, raw.bound = b.flags, b.bound
		f.Add(uint8(KindBatchQuery)-1, raw.payload())
	}
	// A Version 14 adaptive digest, the same bytes with the adaptive tail cut
	// off, and both again with hash count 3: the refused zero hash count, and
	// the trailing tail a static digest does not have. Then the worked
	// static digest with its hash count zeroed.
	adaptive := mustHex(f, adaptiveSummaryHex)
	for _, p := range [][]byte{adaptive, adaptive[:54]} {
		f.Add(uint8(KindSummaryReply)-1, p)
		withHashes := append([]byte(nil), p...)
		withHashes[19] = 3
		f.Add(uint8(KindSummaryReply)-1, withHashes)
	}
	noHashes := mustHex(f, workedSummaryReplyHex)[12:]
	noHashes[17] = 0
	f.Add(uint8(KindSummaryReply)-1, noHashes)
	// A routing digest and a BF query of zero bits and no words.
	f.Add(uint8(KindSummaryReply)-1, append(varints(2), append(make([]byte, 16), 7, 0, 0)...))
	f.Add(uint8(KindBFQuery)-1, append(varints(0, 3, 2), append(make([]byte, 9), 2, 0)...))
	// Row payloads whose varint count (what sizes the value arena) disagrees
	// with their row count and row lengths.
	for _, rows := range [][]byte{
		{1, 7, 3, 2, 4, 6},       // well-formed: one row of three values
		{2, 7, 3, 2, 4, 6},       // two rows announced, bytes for one
		{1, 7, 5, 2, 4, 6},       // a row of five announced, three values follow
		{1, 7, 1, 2, 4, 6},       // a row of one announced, three values follow
		{1, 7, 3, 0x80, 0x80, 0}, // one overlong value where three are announced
		append([]byte{1, 7, 3}, bytes.Repeat([]byte{0x80}, 24)...), // no terminator at all
	} {
		f.Add(uint8(KindIngest)-1, rows)
		f.Add(uint8(KindDumpReply)-1, rows)
	}

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		k := Kind(kind%retiredTop) + 1
		m := Message{Kind: k, Payload: payload}
		switch k {
		case 1, 3, 4, 6, 7, 13, 20, 21, 22, 23:
			// Retired values: rejected at the frame header, no decoder.
			if _, err := Decode(m.Encode()); !errors.Is(err, ErrBadKind) {
				t.Fatalf("a frame of retired kind %d decodes with err = %v, want ErrBadKind", k, err)
			}
		case KindBFQuery:
			_, _ = DecodeBFQuery(m)
		case KindBFMatches:
			bm, err := DecodeBFMatches(m)
			if err == nil {
				roundtripBFMatches(t, bm)
			}
		case KindIngest:
			if in, err := DecodeIngest[pattern.Pattern](m); err == nil {
				checkRows(t, payload, in.Persons, in.Locals)
			}
		case KindEvict:
			ev, err := DecodeEvict(m)
			if err == nil {
				re, err := DecodeEvict(EncodeEvict(ev))
				if err != nil {
					t.Fatalf("evict re-decode failed: %v", err)
				}
				if !personsEqual(re.Persons, ev.Persons) {
					t.Fatalf("evict roundtrip changed persons: %v vs %v", re.Persons, ev.Persons)
				}
			}
		case KindStatsReply:
			sr, err := DecodeStatsReply(m)
			if err == nil {
				re, err := DecodeStatsReply(EncodeStatsReply(sr))
				if err != nil {
					t.Fatalf("stats-reply re-decode failed: %v", err)
				}
				if re != sr {
					t.Fatalf("stats-reply roundtrip changed fields: %+v vs %+v", re, sr)
				}
			}
		case KindBatchQuery:
			// Into a destination that last held another frame, or whose last
			// decode failed half-way, the decode is the fresh one.
			for _, prime := range usedPrimes() {
				checkUsedDecode(t, prime, payload)
			}
			if bq, err := DecodeBatchQuery(m); err == nil {
				// An accepted filter is one the encoder can write, and what
				// it writes decodes to the same arrays (same bytes again).
				enc, err := EncodeBatchQuery(bq)
				if err != nil {
					t.Fatalf("batch-query re-encode failed: %v", err)
				}
				re, err := DecodeBatchQuery(enc)
				if err != nil {
					t.Fatalf("batch-query re-decode failed: %v", err)
				}
				if again, err := EncodeBatchQuery(re); err != nil || !bytes.Equal(again.Payload, enc.Payload) {
					t.Fatalf("batch-query roundtrip changed the frame (err %v)", err)
				}
			}
		case KindBatchReply:
			if br, err := DecodeBatchReply(m); err == nil {
				re, err := DecodeBatchReply(EncodeBatchReply(br))
				if err != nil {
					t.Fatalf("batch-reply re-decode failed: %v", err)
				}
				if re.Station != br.Station || re.Queries != br.Queries || !sameReports(re.Reports, br.Reports) {
					t.Fatalf("batch-reply roundtrip changed the (person, list) multiset:\n%+v\nvs\n%+v", re, br)
				}
			}
		case KindDump:
			_, _ = DecodeDump(m)
		case KindDumpReply:
			if dr, err := DecodeDumpReply(m); err == nil {
				checkRows(t, payload, dr.Persons, dr.Locals)
			}
		case KindSummaryReply:
			_, _ = DecodeSummaryReply(m)
		case KindShutdown, KindStats, KindSummary:
			// Bare request kinds carry no payload and have no decoder.
		default:
			t.Fatalf("fuzz dispatch misses kind %v; add its decoder here", k)
		}
	})
}

// FuzzBatchRoundTrip drives the search exchange's two frames through encode
// and decode, from inputs built deterministically out of the fuzzed seed. A
// batch of encoder-built queries — up to six locals each, some of them
// summing to zero, several queries to a filter, under a drawn person bound —
// must decode to the filter the encoder sealed, array for array and weight
// field for weight field, Mask and Denominator included, and to the same
// bound. A reply of distinct 64-bit persons, dense and sparse, with runs
// whose Rice parameter passes 32 bits must decode to the same report
// multiset.
func FuzzBatchRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 20120612} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		batch, queries := randomBatch(t, rng)
		m, err := EncodeBatchQuery(batch)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		bq, err := DecodeBatchQuery(m)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameFilter(bq.Filter, batch.Filter) {
			t.Fatalf("the decoded filter differs from the encoder's")
		}
		if bq.From != batch.From || bq.To != batch.To {
			t.Fatalf("decoded bound [%d, %d), want [%d, %d)", bq.From, bq.To, batch.From, batch.To)
		}
		for i, q := range queries {
			if bq.Queries[i] != q.ID {
				t.Fatalf("decoded queries %v, want the table's order %v", bq.Queries, queries)
			}
		}

		lists := make([][]core.WeightID, 1+rng.Intn(5))
		for i := range lists {
			lists[i] = []core.WeightID{core.WeightID(rng.Intn(8))}
			if rng.Intn(2) == 0 {
				lists[i] = append(lists[i], lists[i][0]+1+core.WeightID(rng.Intn(8)))
			}
		}
		in := BatchReply{Station: rng.Uint32(), Queries: rng.Uint32(), Reports: make([]core.Report, 1+rng.Intn(300))}
		draw := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return rng.Uint64() // runs up to ~2⁶⁴: Rice parameters past 32 bits
			case 1:
				return uint64(rng.Intn(16)) // dense
			case 2:
				return math.MaxUint64 - uint64(rng.Intn(3))
			default:
				return uint64(rng.Intn(1 << 20))
			}
		}
		drawn := make(map[uint64]bool, len(in.Reports))
		for i := range in.Reports {
			p := draw()
			for drawn[p] { // a station reports a person once
				p = draw()
			}
			drawn[p] = true
			in.Reports[i] = core.Report{Person: core.PersonID(p), WeightIDs: lists[rng.Intn(len(lists))]}
		}
		got, err := DecodeBatchReply(EncodeBatchReply(in))
		if err != nil {
			t.Fatalf("reply decode: %v", err)
		}
		if got.Station != in.Station || got.Queries != in.Queries || !sameReports(got.Reports, in.Reports) {
			t.Fatalf("the decoded reply's reports differ from the %d sent", len(in.Reports))
		}
	})
}

// randomBatch draws a batch round for FuzzBatchRoundTrip: encoder-built
// queries of up to six locals each, some of them summing to zero, several
// queries to a filter of a drawn length, salting and sizing, declared in
// any order, under a drawn person bound. It returns the queries in the
// weight table's order.
func randomBatch(t testing.TB, rng *rand.Rand) (BatchQuery, []core.Query) {
	t.Helper()
	length := 1 + rng.Intn(6)
	queries := make([]core.Query, 1+rng.Intn(4))
	for i := range queries {
		locals := make([]pattern.Pattern, 1+rng.Intn(6))
		for j := range locals {
			locals[j] = make(pattern.Pattern, length)
			if rng.Intn(3) > 0 { // the others sum to zero
				for g := range locals[j] {
					locals[j][g] = rng.Int63n(40)
				}
			}
		}
		locals[rng.Intn(len(locals))][0]++ // a nonzero total
		queries[i] = core.Query{ID: core.QueryID(rng.Uint32()&^7 | uint32(i)), Locals: locals}
	}
	base := core.Params{Samples: 1 + rng.Intn(4), Epsilon: rng.Int63n(3), Seed: rng.Uint64(), PositionSalted: rng.Intn(2) == 0}
	params, err := core.SizedParams(base, length, queries, []float64{0.01, 0.2}[rng.Intn(2)])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(params, length)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]core.QueryID, len(queries))
	for i, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		ids[i] = q.ID
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] }) // declared in any order
	// A person bound: none, From only, To only, or both with To > From.
	var from, to core.PersonID
	switch rng.Intn(4) {
	case 1:
		from = core.PersonID(1 + rng.Uint64()>>uint(rng.Intn(64)))
	case 2:
		to = core.PersonID(1 + rng.Uint64()>>uint(rng.Intn(64)))
	case 3:
		from = core.PersonID(1 + rng.Uint64()>>uint(2+rng.Intn(62)))
		to = from + 1 + core.PersonID(rng.Uint64()>>uint(2+rng.Intn(62)))
	}
	return BatchQuery{Queries: ids, Filter: enc.Filter(), From: from, To: to}, queries
}

// checkRows holds an accepted row payload to the arena's bound — the cells
// handed out never exceed the payload's byte count, each row capped at its
// own length — and to surviving a re-encode.
func checkRows(t *testing.T, payload []byte, persons []core.PersonID, locals []pattern.Pattern) {
	t.Helper()
	if len(persons) != len(locals) {
		t.Fatalf("%d persons but %d locals decoded", len(persons), len(locals))
	}
	cells := 0
	for i, l := range locals {
		if cap(l) != len(l) {
			t.Fatalf("row %d has cap %d over len %d", i, cap(l), len(l))
		}
		cells += len(l)
	}
	if cells > len(payload) {
		t.Fatalf("%d cells decoded from a %d byte payload", cells, len(payload))
	}
	enc, err := EncodeIngestPayload(Ingest{Persons: persons, Locals: locals})
	if err != nil {
		t.Fatalf("rows re-encode failed: %v", err)
	}
	re, err := DecodeIngestPayload[pattern.Pattern](enc)
	if err != nil {
		t.Fatalf("rows re-decode failed: %v", err)
	}
	if !personsEqual(re.Persons, persons) || len(re.Locals) != len(locals) {
		t.Fatalf("rows roundtrip changed persons: %v vs %v", re.Persons, persons)
	}
	for i := range locals {
		if !re.Locals[i].Equal(locals[i]) {
			t.Fatalf("rows roundtrip changed row %d: %v vs %v", i, re.Locals[i], locals[i])
		}
	}
}

func roundtripBFMatches(t *testing.T, bm BFMatches) {
	t.Helper()
	re, err := DecodeBFMatches(EncodeBFMatches(bm))
	if err != nil {
		t.Fatalf("bf-matches re-decode failed: %v", err)
	}
	if !personsEqual(re.Persons, bm.Persons) {
		t.Fatalf("bf-matches roundtrip changed: %+v vs %+v", re, bm)
	}
}

func personsEqual(a, b []core.PersonID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
