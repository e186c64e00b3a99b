package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dimatch/internal/core"
)

func TestBatchQueryRoundTrip(t *testing.T) {
	f := buildFilter(t)
	m, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{7, 1}, Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindBatchQuery {
		t.Fatalf("kind = %v", m.Kind)
	}
	got, err := DecodeBatchQuery(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Queries) != 2 || got.Queries[0] != 1 || got.Queries[1] != 7 {
		t.Fatalf("queries = %v, want sorted [1 7]", got.Queries)
	}
	if got.Filter.Params() != f.Params() || got.Filter.Length() != f.Length() {
		t.Fatal("filter params/length lost")
	}
	if len(got.Filter.Weights()) != len(f.Weights()) {
		t.Fatal("weight table size changed")
	}
}

func TestBatchQueryEncodeErrors(t *testing.T) {
	f := buildFilter(t)
	if _, err := EncodeBatchQuery(BatchQuery{Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("empty batch: %v", err)
	}
	// The filter encodes queries 1 and 7; declaring only 1 must fail.
	if _, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1}, Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("undeclared query: %v", err)
	}
	if _, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 1, 7}, Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("duplicate query: %v", err)
	}
	big := make([]core.QueryID, MaxBatchQueries+1)
	for i := range big {
		big[i] = core.QueryID(i)
	}
	if _, err := EncodeBatchQuery(BatchQuery{Queries: big, Filter: f}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	if _, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 7, 9}, Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("declared query the filter lacks: %v", err)
	}

	// Tables that cannot travel as local sums: a row whose denominator is not
	// its query's total, a mask wider than MaxLocals, a negative sum, and
	// rows no pointer list names (three rows, one pointer).
	p := core.Params{Bits: 64, Hashes: 1, Samples: 2, Seed: 5}
	for name, weights := range map[string][]core.WeightEntry{
		"foreign denominator": {{Query: 1, Mask: 1, Numerator: 1, Denominator: 5}},
		"mask past MaxLocals": {{Query: 1, Mask: 1 << 21, Numerator: 1, Denominator: 1}},
		"negative sum":        {{Query: 1, Mask: 1, Numerator: -1, Denominator: -1}},
		"unpointed row":       core.WeightRows(nil, 1, []int64{1, 2}),
	} {
		// One set bit, carrying the one list [0].
		g, err := core.FromParts(p, 2, []uint32{3}, weights, []uint32{0, 1}, []core.WeightID{0}, []uint32{0})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1}, Filter: g}); !errors.Is(err, ErrBadWeight) {
			t.Errorf("%s: err = %v, want ErrBadWeight", name, err)
		}
	}
}

// TestBatchQueryDecodeCorrupt drives corrupt and hostile payloads through
// the decoder: every one must fail with a typed error, never panic.
func TestBatchQueryDecodeCorrupt(t *testing.T) {
	f := buildFilter(t)
	good, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 7}, Filter: f})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong kind", func(t *testing.T) {
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchReply}); err == nil {
			t.Fatal("wrong kind accepted")
		}
	})
	t.Run("empty payload", func(t *testing.T) {
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery}); err == nil {
			t.Fatal("empty payload accepted")
		}
	})
	t.Run("oversized count", func(t *testing.T) {
		var w writer
		w.uvarint(MaxBatchQueries + 1)
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("err = %v, want ErrBatchTooLarge", err)
		}
	})
	t.Run("zero count", func(t *testing.T) {
		var w writer
		w.uvarint(0)
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("err = %v, want ErrBatchMismatch", err)
		}
	})
	t.Run("duplicate id", func(t *testing.T) {
		var w writer
		w.uvarint(2)
		for range 2 {
			w.uvarint(3) // id 3, one local summing to 1
			w.uvarint(1)
			w.uvarint(1)
		}
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("err = %v, want ErrBatchMismatch", err)
		}
	})
	t.Run("undeclared weight query", func(t *testing.T) {
		// Declare only query 1's block in front of a filter whose pointers
		// also name query 7's row: the table the block derives has no such
		// row.
		var w writer
		w.uvarint(1)
		if _, err := writeQueries(&w, f.Weights()[:3], nil); err != nil {
			t.Fatal(err)
		}
		writeFilter(&w, f, 0, 0)
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf}); err == nil {
			t.Fatal("a pointer to an undeclared query's row was accepted")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		// Every prefix of a valid payload must fail loudly, not panic.
		for i := 0; i < len(good.Payload); i += 7 {
			if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: good.Payload[:i]}); err == nil {
				t.Fatalf("truncation at %d accepted", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		p := append(append([]byte(nil), good.Payload...), 0xFF)
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: p}); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
}

func TestBatchReplyRoundTrip(t *testing.T) {
	in := BatchReply{
		Station: 3,
		Queries: 2,
		Reports: []core.Report{
			{Person: 10, WeightIDs: []core.WeightID{0, 4}},
			{Person: 42, WeightIDs: []core.WeightID{1}},
		},
	}
	m := EncodeBatchReply(in)
	if m.Kind != KindBatchReply {
		t.Fatalf("kind = %v", m.Kind)
	}
	got, err := DecodeBatchReply(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != 3 || got.Queries != 2 || len(got.Reports) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Reports[0].Person != 10 || len(got.Reports[0].WeightIDs) != 2 || got.Reports[1].WeightIDs[0] != 1 {
		t.Fatalf("reports %+v", got.Reports)
	}
	if _, err := DecodeBatchReply(Message{Kind: KindStatsReply}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := DecodeBatchReply(Message{Kind: KindBatchReply, Payload: []byte{0x80}}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestStatsReplyFixedLayout pins the one stats-reply layout: three uvarints
// and the uvarint Seq, always. A payload that stops before Seq (Version
// 16's), carries Version 17's flags byte before it, or carries one byte
// more, is rejected.
func TestStatsReplyFixedLayout(t *testing.T) {
	var body []byte
	body = binary.AppendUvarint(body, 4)  // residents
	body = binary.AppendUvarint(body, 96) // storage bytes
	body = binary.AppendUvarint(body, 3)  // length
	in := StatsReply{Residents: 4, StorageBytes: 96, Length: 3, Seq: 200}
	m := EncodeStatsReply(in)
	if want := binary.AppendUvarint(append([]byte(nil), body...), 200); !bytes.Equal(m.Payload, want) {
		t.Fatalf("payload % x, want % x", m.Payload, want)
	}
	if got, err := DecodeStatsReply(m); err != nil || got != in {
		t.Fatalf("got %+v, %v", got, err)
	}
	if _, err := DecodeStatsReply(Message{Kind: KindStatsReply, Payload: body}); err == nil {
		t.Fatal("payload without Seq accepted")
	}
	for _, flags := range []byte{0, 1} {
		v17 := binary.AppendUvarint(append(append([]byte(nil), body...), flags), 200)
		if _, err := DecodeStatsReply(Message{Kind: KindStatsReply, Payload: v17}); err == nil {
			t.Fatalf("Version 17's payload with flags %d accepted", flags)
		}
	}
	if _, err := DecodeStatsReply(Message{Kind: KindStatsReply, Payload: append(append([]byte(nil), body...), 1, 1)}); err == nil {
		t.Fatal("payload with a byte after Seq accepted")
	}
}
