package wire

import (
	"bytes"
	"encoding/hex"
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
	workedBatchQueryHex = "a7d10a0e2a000000" + "2a000000" +
		"0101400000000000000002020001050000000000000000" +
		"0202010000000500202000" + "0101010303" + "010100"
	workedSummaryReplyHex = "a7d10a132a000000" + "1e000000" +
		"030201719a3d0cbfe5a75140000000000000000702" +
		"010119402202542008"
	// A KindRouteQuery delegating a one-query round (auto-sized params,
	// summary routing) and the region's KindRouteReply carrying one raw partial
	// result.
	workedRouteQueryHex = "a7d10a142a000000" + "2c000000" +
		"01070204020400020400020204" +
		"000000000000000000000000000000000000000000" +
		"7b14ae47e17a843f" + "0000"
	workedRouteReplyHex = "a7d10a152a000000" + "0c000000" +
		"030502010001" + "010709181801"
	// A KindParamUpdate installing a three-group adaptive plan at epoch 2.
	workedParamUpdateHex = "a7d10a162a000000" + "1b000000" +
		"020000000000000001" + "1704000000000000" + "03" +
		"020501" + "030604" + "040710"
)

// addRetiredSeeds seeds a frame fuzzer with copies of frame re-stamped with
// each version byte earlier builds used (plus the next unassigned one) and
// each retired kind byte — all of which must be rejected at the header.
func addRetiredSeeds(f *testing.F, frame []byte) {
	for _, v := range []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 11} {
		bad := append([]byte(nil), frame...)
		bad[2] = v
		f.Add(bad)
	}
	for _, k := range []byte{1, 3, 4, 6, 7} {
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
	f.Add(Message{Kind: KindStats, Request: 7}.Encode())
	f.Add(Message{Kind: KindShutdown}.Encode())
	f.Add(EncodeDump(Dump{Persons: []core.PersonID{1, 2, 3}}).WithRequest(9).Encode())
	f.Add(EncodeAck(Ack{Station: 4, Applied: 2}).Encode())
	// Truncation seeds: a frame cut mid-header and mid-payload.
	full := mustHex(f, workedBatchQueryHex)
	f.Add(full[:7])
	f.Add(full[:20])
	addRetiredSeeds(f, full)

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

// FuzzDecodePayload drives every payload decoder with arbitrary bytes
// under its own kind: decoders must reject garbage with an error (the
// reader's count guard bounds allocations), never panic, and — for the
// fixed-shape payloads — survive a decode/encode/decode roundtrip.
func FuzzDecodePayload(f *testing.F) {
	// Payloads of the worked frames (frame header stripped).
	f.Add(uint8(KindBatchQuery)-1, mustHex(f, workedBatchQueryHex)[12:])
	f.Add(uint8(KindSummaryReply), mustHex(f, workedSummaryReplyHex)[12:])
	f.Add(uint8(KindDump), EncodeDump(Dump{Persons: []core.PersonID{1, 2, 3}}).Payload)
	f.Add(uint8(KindEvict), EncodeEvict(Evict{Persons: []core.PersonID{9, 10}}).Payload)
	f.Add(uint8(KindAck), EncodeAck(Ack{Station: 7, Applied: 2}).Payload)
	f.Add(uint8(KindStatsReply), EncodeStatsReply(StatsReply{Station: 3, Residents: 5, StorageBytes: 80, Length: 24}).Payload)
	f.Add(uint8(KindBFMatches), EncodeBFMatches(BFMatches{Station: 2, Persons: []core.PersonID{11}}).Payload)
	if dr, err := EncodeDumpReply(DumpReply{Station: 1, Persons: []core.PersonID{4}, Locals: []pattern.Pattern{{1, 2, 3}}}); err == nil {
		f.Add(uint8(KindDumpReply), dr.Payload)
		f.Add(uint8(5), dr.Payload) // dispatches to retired kind 6, which carried this payload
	}
	f.Add(uint8(KindDump), EncodeDump(Dump{}).Payload)
	f.Add(uint8(KindRouteQuery), mustHex(f, workedRouteQueryHex)[12:])
	f.Add(uint8(KindRouteReply), mustHex(f, workedRouteReplyHex)[12:])
	f.Add(uint8(KindRouteReply), EncodeRouteReply(RouteReply{
		Region:  2,
		Results: []RouteResult{{Query: 1, Person: 9, Numerator: 12, Denominator: 12, Stations: 3}},
		Probes:  5, Visited: 2, Pruned: 1, Hops: 1,
	}).Payload)
	f.Add(uint8(KindParamUpdate), mustHex(f, workedParamUpdateHex)[12:])
	if pu, err := EncodeParamUpdate(ParamUpdate{Epoch: 9}); err == nil {
		f.Add(uint8(KindParamUpdate), pu.Payload)
	}
	f.Add(uint8(KindParamAck), EncodeParamAck(ParamAck{Station: 4, Epoch: 3, Applied: true}).Payload)
	// The retired kind bytes (the dispatch below maps seed byte b to kind
	// b%maxKind+1).
	for _, b := range []uint8{0, 2, 3, 5, 6} {
		f.Add(b, mustHex(f, workedBatchQueryHex)[12:])
	}
	// The filter block's rejection matrix: a valid hand-spelled filter and one
	// payload per property the decoder enforces on it.
	f.Add(uint8(KindBatchQuery)-1, validRawFilter().payload())
	for _, tt := range hostileFilters() {
		raw := validRawFilter()
		tt.mutate(&raw)
		f.Add(uint8(KindBatchQuery)-1, raw.payload())
	}
	f.Add(uint8(KindBatchReply)-1, EncodeBatchReply(BatchReply{Station: 3, Queries: 1, Reports: []core.Report{
		{Person: 900, WeightIDs: []core.WeightID{0}}, {Person: 901, WeightIDs: []core.WeightID{0, 2}}, {Person: 7, WeightIDs: []core.WeightID{1}},
	}}).Payload)
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
		f.Add(uint8(KindDumpReply)-1, append([]byte{4}, rows...))
	}

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		k := Kind(kind%uint8(maxKind)) + 1
		m := Message{Kind: k, Payload: payload}
		switch k {
		case 1, 3, 4, 6, 7:
			// Retired values: rejected at the frame header, no decoder.
		case KindBFQuery:
			_, _ = DecodeBFQuery(m)
		case KindBFMatches:
			bm, err := DecodeBFMatches(m)
			if err == nil {
				roundtripBFMatches(t, bm)
			}
		case KindIngest:
			if in, err := DecodeIngest(m); err == nil {
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
		case KindAck:
			a, err := DecodeAck(m)
			if err == nil {
				re, err := DecodeAck(EncodeAck(a))
				if err != nil || re != a {
					t.Fatalf("ack roundtrip: %+v, %v; want %+v", re, err, a)
				}
			}
		case KindBatchQuery:
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
				enc := EncodeBatchReply(br)
				if len(enc.Payload) != BatchReplyPayloadSize(br) {
					t.Fatalf("batch-reply is %d B, BatchReplyPayloadSize says %d", len(enc.Payload), BatchReplyPayloadSize(br))
				}
				re, err := DecodeBatchReply(enc)
				if err != nil || len(re.Reports) != len(br.Reports) {
					t.Fatalf("batch-reply re-decode: %d reports, %v; want %d", len(re.Reports), err, len(br.Reports))
				}
				for i := range re.Reports {
					if re.Reports[i].Person != br.Reports[i].Person {
						t.Fatalf("batch-reply roundtrip changed person %d: %d vs %d", i, re.Reports[i].Person, br.Reports[i].Person)
					}
				}
			}
		case KindDump:
			_, _ = DecodeDump(m)
		case KindDumpReply:
			if dr, err := DecodeDumpReply(m); err == nil {
				checkRows(t, payload, dr.Persons, dr.Locals)
			}
		case KindSummaryReply:
			_, _, _ = DecodeSummaryReply(m)
		case KindRouteQuery:
			rq, err := DecodeRouteQuery(m)
			if err == nil {
				enc, err := EncodeRouteQuery(rq)
				if err != nil {
					t.Fatalf("route-query re-encode failed: %v", err)
				}
				re, err := DecodeRouteQuery(enc)
				if err != nil {
					t.Fatalf("route-query re-decode failed: %v", err)
				}
				if len(re.Queries) != len(rq.Queries) || re.Params != rq.Params || re.Routing != rq.Routing || re.BatchSize != rq.BatchSize {
					t.Fatalf("route-query roundtrip changed: %+v vs %+v", re, rq)
				}
			}
		case KindRouteReply:
			rr, err := DecodeRouteReply(m)
			if err == nil {
				re, err := DecodeRouteReply(EncodeRouteReply(rr))
				if err != nil {
					t.Fatalf("route-reply re-decode failed: %v", err)
				}
				if re.Region != rr.Region || re.Probes != rr.Probes || len(re.Results) != len(rr.Results) {
					t.Fatalf("route-reply roundtrip changed: %+v vs %+v", re, rr)
				}
				for i := range re.Results {
					if re.Results[i] != rr.Results[i] {
						t.Fatalf("route-reply result %d changed: %+v vs %+v", i, re.Results[i], rr.Results[i])
					}
				}
			}
		case KindParamUpdate:
			pu, err := DecodeParamUpdate(m)
			if err == nil {
				enc, err := EncodeParamUpdate(pu)
				if err != nil {
					t.Fatalf("param-update re-encode failed: %v", err)
				}
				re, err := DecodeParamUpdate(enc)
				if err != nil {
					t.Fatalf("param-update re-decode failed: %v", err)
				}
				if re.Epoch != pu.Epoch || (re.Plan == nil) != (pu.Plan == nil) {
					t.Fatalf("param-update roundtrip changed: %+v vs %+v", re, pu)
				}
				if re.Plan != nil && !re.Plan.Equal(pu.Plan) {
					t.Fatalf("param-update plan roundtrip changed: %+v vs %+v", re.Plan, pu.Plan)
				}
			}
		case KindParamAck:
			pa, err := DecodeParamAck(m)
			if err == nil {
				re, err := DecodeParamAck(EncodeParamAck(pa))
				if err != nil {
					t.Fatalf("param-ack re-decode failed: %v", err)
				}
				if re != pa {
					t.Fatalf("param-ack roundtrip changed: %+v vs %+v", re, pa)
				}
			}
		case KindShutdown, KindStats, KindSummary:
			// Bare request kinds carry no payload and have no decoder.
		default:
			t.Fatalf("fuzz dispatch misses kind %v; add its decoder here", k)
		}
	})
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
	re, err := DecodeIngestPayload(enc)
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
	if re.Station != bm.Station || !personsEqual(re.Persons, bm.Persons) {
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
