package wire

import (
	"errors"
	"math"
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

// routeQueryPayload spells a route query of one-local queries with the
// given IDs.
func routeQueryPayload(ids ...uint64) []byte {
	return boundedRouteQueryPayload(0, nil, ids...)
}

// boundedRouteQueryPayload is routeQueryPayload with flags ORed into the
// params flag byte and bound following it as uvarints, spelled as given.
func boundedRouteQueryPayload(flags uint8, bound []uint64, ids ...uint64) []byte {
	var w writer
	w.uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.buf = append(w.buf, varints(id, 1, 1, zigzag(2))...)
	}
	writeParams(&w, core.Params{}, 0, 0)
	w.buf[len(w.buf)-1] |= flags
	w.buf = append(w.buf, varints(bound...)...)
	w.u64(math.Float64bits(0.01))
	w.uvarint(0)
	w.u8(0)
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
	// Region, Probes, Pruned, Visited, Failed, Hops, one result: Query,
	// Person, Numerator, Denominator (zigzag), Stations.
	routeReply := func(at int) func(uint64) []byte {
		return func(v uint64) []byte {
			fields := []uint64{3, 5, 2, 1, 0, 1, 1, 7, 9, 24, 24, 1}
			fields[at] = v
			return varints(fields...)
		}
	}
	stats := func(at int) func(uint64) []byte {
		return func(v uint64) []byte {
			fields := []uint64{3, 5, 80, 24} // Station, Residents, StorageBytes, Length
			fields[at] = v
			return append(append(varints(fields...), 0), varints(1)...) // Flags, Seq
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
		{"route-query id", KindRouteQuery, func(v uint64) []byte { return routeQueryPayload(v) }},
		{"route-reply region", KindRouteReply, routeReply(0)},
		{"route-reply pruned", KindRouteReply, routeReply(2)},
		{"route-reply visited", KindRouteReply, routeReply(3)},
		{"route-reply failed", KindRouteReply, routeReply(4)},
		{"route-reply hops", KindRouteReply, routeReply(5)},
		{"route-reply query", KindRouteReply, routeReply(7)},
		{"route-reply stations", KindRouteReply, routeReply(11)},
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
	case KindRouteQuery:
		_, err = DecodeRouteQuery(m)
	case KindRouteReply:
		_, err = DecodeRouteReply(m)
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
// not truncated into another value — a region's result for query 2³²+7
// would otherwise merge into query 7 at the root.
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

// TestRouteQueryRejectsDuplicateIDs: a round naming one query twice is
// refused at decode, where a region's search would refuse it and end the
// serve loop.
func TestRouteQueryRejectsDuplicateIDs(t *testing.T) {
	if err := decodeAs(KindRouteQuery, routeQueryPayload(5, 6)); err != nil {
		t.Fatalf("IDs 5 and 6: %v", err)
	}
	if err := decodeAs(KindRouteQuery, routeQueryPayload(5, 6, 5)); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("IDs 5, 6 and 5: err = %v, want ErrBatchMismatch", err)
	}
}
