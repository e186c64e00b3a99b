// AllocsPerRun pins: Message.AppendFrame (the hot-path frame renderer behind
// every pooled send), held to 0 allocs/op; DecodeBatchQuery (every visited
// station, every round), held to a ceiling that does not grow with the
// filter on a fresh destination and to 0 on a warm one; the batch-reply
// codec, held to ceilings that do not grow with the report count, and to 0
// on a warm encoder; and EncodeSummaryReply, held to its one payload
// allocation.
package wire

import (
	"testing"

	"dimatch/internal/core"
)

var frameSink []byte

func TestNoallocMessageAppendFrame(t *testing.T) {
	m := Message{Kind: KindStatsReply, Request: 7, Payload: []byte{1, 2, 3, 4}}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		frameSink = m.AppendFrame(buf[:0])
	}); n != 0 {
		t.Fatalf("Message.AppendFrame allocates %v times per run; want 0", n)
	}
}

// TestAllocsDecodeBatchQuery is a ceiling, not a zero, on a fresh
// destination: a decoded filter is a fixed handful of arrays however many
// bits it sets (the point shape sets 324), where a pointer list per set bit
// cost two allocations each. Into a destination that already decoded a
// larger frame — a station's, from one round to the next — it is a zero.
func TestAllocsDecodeBatchQuery(t *testing.T) {
	shapes := frameShapes(t)
	var warm BatchQuery
	for _, s := range shapes {
		m, err := EncodeBatchQuery(s.batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatchQueryInto(&warm, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range shapes {
		m, err := EncodeBatchQuery(s.batch)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			batchSink, _ = DecodeBatchQuery(m)
		}); n > 16 {
			t.Errorf("DecodeBatchQuery of the %s shape allocates %v times per run; want at most 16", s.name, n)
		} else {
			t.Logf("%s: %v allocs", s.name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := DecodeBatchQueryInto(&warm, m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("DecodeBatchQueryInto a warm destination, %s shape, allocates %v times per run; want 0", s.name, n)
		}
	}
}

// TestAllocsBatchReplyCodec: 5 000 reports on 3 pointer lists encode with
// the grouping index and the payload's growth as the only allocations on a
// fresh encoder and none on a warm one, and decode into two allocations,
// the reports and one pointer arena the reports of a list share, where a
// slice per report cost 5 000.
func TestAllocsBatchReplyCodec(t *testing.T) {
	lists := [][]core.WeightID{{0}, {1}, {0, 2}}
	b := BatchReply{Station: 9, Queries: 2, Reports: make([]core.Report, 5000)}
	for i := range b.Reports {
		b.Reports[i] = core.Report{Person: core.PersonID(3 * i), WeightIDs: lists[i*i%7%3]}
	}
	m := EncodeBatchReply(b)
	if n := testing.AllocsPerRun(20, func() { messageSink = EncodeBatchReply(b) }); n > 16 {
		t.Errorf("EncodeBatchReply of 5 000 reports allocates %v times per run; want at most 16", n)
	} else {
		t.Logf("encode: %v allocs", n)
	}
	var e ReplyEncoder
	e.Encode(b)
	if n := testing.AllocsPerRun(20, func() { messageSink = e.Encode(b) }); n != 0 {
		t.Errorf("a warm ReplyEncoder allocates %v times per run for 5 000 reports; want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { replySink, _ = DecodeBatchReply(m) }); n > 2 {
		t.Errorf("DecodeBatchReply of 5 000 reports allocates %v times per run; want at most 2", n)
	}
}

var summarySink Message

// TestAllocsEncodeSummaryReply pins the digest's way out at one allocation:
// the payload, sized up front, with the words read in place.
func TestAllocsEncodeSummaryReply(t *testing.T) {
	words := make([]uint64, 1<<14)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	sr := SummaryReply{Station: 1 << 30, Length: 24, Residents: 1 << 40, Seed: ^uint64(0), Bits: 64 << 14, Hashes: 7, Inserted: ^uint64(0), Words: words}
	if n := testing.AllocsPerRun(20, func() {
		summarySink = EncodeSummaryReply(sr)
	}); n != 1 {
		t.Fatalf("EncodeSummaryReply allocates %v times per run; want 1", n)
	}
	if got, max := len(summarySink.Payload), summaryHeaderMax+8*len(words); got > max || cap(summarySink.Payload) != max {
		t.Fatalf("payload %d B of capacity %d, want at most %d of exactly %d", got, cap(summarySink.Payload), max, max)
	}
}
