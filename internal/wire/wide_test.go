package wire

import (
	"strings"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// wideField is one payload with one 32-bit field set to v: valid for a v
// that fits, refused for a wider one.
type wideField struct {
	name  string
	kind  Kind
	build func(v uint64) []byte
}

func varints(vs ...uint64) []byte {
	var w writer
	for _, v := range vs {
		w.uvarint(v)
	}
	return w.buf
}

// wideFields lists every field a decoder keeps in 32 bits, one payload each.
// FuzzDecodePayload starts from each of them, wide.
func wideFields() []wideField {
	summary := func(at int) func(uint64) []byte {
		return func(v uint64) []byte {
			fields := []uint64{3, 2, 7} // Station, Length, Hashes
			fields[at] = v
			var w writer
			w.buf = varints(fields[0], fields[1], 1)
			w.u64(5)
			w.u64(64)
			w.buf = append(w.buf, varints(fields[2], 2)...)
			writeWords(&w, []uint64{0x0820540222401901})
			return w.buf
		}
	}
	stats := func(at int) func(uint64) []byte {
		return func(v uint64) []byte {
			fields := []uint64{3, 5, 80, 24} // Station, Residents, StorageBytes, Length
			fields[at] = v
			return append(varints(fields...), varints(1)...) // Seq
		}
	}
	return []wideField{
		{"bf-matches station", KindBFMatches, func(v uint64) []byte { return varints(v, 1, 11) }},
		{"dump-reply station", KindDumpReply, func(v uint64) []byte {
			w := writer{buf: varints(v)}
			writeRows(&w, []core.PersonID{4}, []pattern.Pattern{{1, 2, 3}}, nil)
			return w.buf
		}},
		{"summary station", KindSummaryReply, summary(0)},
		{"summary length", KindSummaryReply, summary(1)},
		{"summary hashes", KindSummaryReply, summary(2)},
		{"stats-reply station", KindStatsReply, stats(0)},
		{"stats-reply length", KindStatsReply, stats(3)},
		{"batch-query id", KindBatchQuery, func(v uint64) []byte {
			f := validRawFilter()
			f.blocks[0][0] = v
			return f.payload()
		}},
		{"batch-reply station", KindBatchReply, func(v uint64) []byte {
			return hostileReply{fields: append([]uint64{v}, workedReplyFields[1:]...), stream: bitsOf(workedReplyStream)}.payload()
		}},
	}
}

// decodeAs runs kind's payload decoder on payload.
func decodeAs(kind Kind, payload []byte) error {
	m := Message{Kind: kind, Payload: payload}
	var err error
	switch kind {
	case KindBFMatches:
		_, err = DecodeBFMatches(m)
	case KindDumpReply:
		_, err = DecodeDumpReply(m)
	case KindSummaryReply:
		_, err = DecodeSummaryReply(m)
	case KindStatsReply:
		_, err = DecodeStatsReply(m)
	case KindBatchQuery:
		_, err = DecodeBatchQuery(m)
	case KindBatchReply:
		_, err = DecodeBatchReply(m)
	default:
		panic("no decoder for " + kind.String())
	}
	return err
}

// TestDecodersRefuseWide32BitFields: a 32-bit field sent wider is an error,
// not truncated into another value — a reply from station 2³²+7 would
// otherwise read as station 7's.
func TestDecodersRefuseWide32BitFields(t *testing.T) {
	for _, tt := range wideFields() {
		t.Run(tt.name, func(t *testing.T) {
			if err := decodeAs(tt.kind, tt.build(7)); err != nil {
				t.Fatalf("the payload with 7 is refused: %v", err)
			}
			if err := decodeAs(tt.kind, tt.build(1<<32+7)); err == nil || !strings.Contains(err.Error(), "overflows 32 bits") {
				t.Fatalf("the payload with 2³²+7: err = %v, want one saying it overflows 32 bits", err)
			}
		})
	}
	// Two batch-query blocks for IDs 1 and 1+2³² do not pass as a duplicate
	// pair, or as anything else.
	f := validRawFilter()
	f.blocks = append(f.blocks, []uint64{1 + 1<<32, 1, 4})
	if err := decodeAs(KindBatchQuery, f.payload()); err == nil || !strings.Contains(err.Error(), "overflows 32 bits") {
		t.Fatalf("batch query IDs 1 and 1+2³²: err = %v", err)
	}
}
