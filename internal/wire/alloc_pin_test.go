// AllocsPerRun pins: Message.AppendFrame (the hot-path frame renderer behind
// every pooled send) and AppendBatchReplyPayload (a station's streaming batch
// answer), held to 0 allocs/op, and DecodeBatchQuery (every visited station,
// every round), held to a ceiling that does not grow with the filter.
package wire

import (
	"testing"

	"dimatch/internal/core"
)

var frameSink []byte

func TestNoallocMessageAppendFrame(t *testing.T) {
	m := Message{Kind: KindAck, Request: 7, Payload: []byte{1, 2, 3, 4}}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		frameSink = m.AppendFrame(buf[:0])
	}); n != 0 {
		t.Fatalf("Message.AppendFrame allocates %v times per run; want 0", n)
	}
}

func TestNoallocAppendBatchReplyPayload(t *testing.T) {
	b := BatchReply{
		Station: 3,
		Queries: 2,
		Reports: []core.Report{
			{Person: 11, WeightIDs: []core.WeightID{1, 2}},
			{Person: 12, WeightIDs: []core.WeightID{3}},
		},
	}
	buf := make([]byte, 0, BatchReplyPayloadSize(b))
	if n := testing.AllocsPerRun(100, func() {
		frameSink = AppendBatchReplyPayload(buf[:0], b)
	}); n != 0 {
		t.Fatalf("AppendBatchReplyPayload allocates %v times per run; want 0", n)
	}
}

// TestAllocsDecodeBatchQuery is a ceiling, not a zero: a decoded filter is a
// fixed handful of arrays however many bits it sets (the point shape sets
// 1 633), where a pointer list per set bit cost two allocations each.
func TestAllocsDecodeBatchQuery(t *testing.T) {
	for _, s := range frameShapes(t) {
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
	}
}
