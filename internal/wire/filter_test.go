package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dimatch/internal/cdr"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// frameShape is one of the three batch-query shapes the benchmark's
// workloads send (BENCHMARK.json), rebuilt small enough for a unit test.
type frameShape struct {
	name  string
	batch BatchQuery
}

// frameShapes builds the shapes with auto-sized filters at the cluster's
// default 1 % target, as a search does:
//
//   - point: one query of one 24-interval local with values below 10⁶ at
//     ε = 1 (point_routed, ingest_mixed) — every set bit carries the same
//     one-pointer list;
//   - city: one synthetic-city person's locals at ε = 0 (city_fanout) — a
//     few combinations, a few dozen distinct lists;
//   - batch16: sixteen such persons in one combined filter (batch_verify).
func frameShapes(t testing.TB) []frameShape {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	point := make(pattern.Pattern, 24)
	for i := range point {
		point[i] = rng.Int63n(1_000_000)
	}
	city, err := cdr.Generate(cdr.Config{Seed: 20120612, Persons: 400, Stations: 8, Days: 3, IntervalsPerDay: 8, VolumeLevels: 17})
	if err != nil {
		t.Fatal(err)
	}
	var persons []core.Query
	for id := cdr.PersonID(0); len(persons) < 16; id++ {
		if locals := city.QueryLocalsOf(id); len(locals) >= 3 {
			persons = append(persons, core.Query{ID: core.QueryID(len(persons) + 1), Locals: locals})
		}
	}
	build := func(name string, base core.Params, length int, queries []core.Query) frameShape {
		params, err := core.SizedParams(base, length, queries, 0.01)
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
		return frameShape{name, BatchQuery{Queries: ids, Filter: enc.Filter()}}
	}
	return []frameShape{
		build("point", core.Params{Epsilon: 1}, len(point), []core.Query{{ID: 1, Locals: []pattern.Pattern{point}}}),
		build("city", core.Params{}, city.Length(), persons[:1]),
		build("batch16", core.Params{}, city.Length(), persons),
	}
}

// TestFilterFrameSizes pins each shape's payload to the byte: the bit array,
// then a tail that no longer grows with the set bits' pointers (version 9,
// with a delta-coded index and a pointer list per set bit, took 5 331, 1 111
// and 11 493 B for these three filters).
func TestFilterFrameSizes(t *testing.T) {
	want := map[string]int{"point": 433, "city": 512, "batch16": 4895}
	for _, s := range frameShapes(t) {
		m, err := EncodeBatchQuery(s.batch)
		if err != nil {
			t.Fatal(err)
		}
		f := s.batch.Filter
		codes, offs, _ := f.Lists()
		t.Logf("%s: payload %d B: %d words, %d set bits, %d distinct lists, %d weight rows",
			s.name, len(m.Payload), len(f.Words()), len(codes), len(offs)-1, len(f.Weights()))
		if len(m.Payload) != want[s.name] {
			t.Errorf("%s: payload %d B, want %d", s.name, len(m.Payload), want[s.name])
		}
		got, err := DecodeBatchQuery(m)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		again, err := EncodeBatchQuery(got)
		if err != nil || !bytes.Equal(again.Payload, m.Payload) {
			t.Errorf("%s: a decoded filter re-encodes to different bytes (err %v)", s.name, err)
		}
	}
}

// TestWorkedBatchQueryHex pins the docs/WIRE.md worked batch-query frame to
// the live encoder.
func TestWorkedBatchQueryHex(t *testing.T) {
	enc, err := core.NewEncoder(core.Params{Bits: 64, Hashes: 2, Samples: 2, Tolerance: core.ToleranceScaled, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.AddQuery(core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	m, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1}, Filter: enc.Filter()})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(m.WithRequest(42).Encode()); got != workedBatchQueryHex {
		t.Fatalf("batch-query worked frame drifted:\n got %s\nwant %s", got, workedBatchQueryHex)
	}
}

// rawFilter is a batch-query payload spelled field by field, so a test can
// state any one of them wrongly. The zero mutation is a valid filter: 64
// bits with 1, 2 and 5 set, weight rows 1/3 and 2/3 of query 1, dictionary
// lists [0] and [0 1], and the set bits carrying lists 0, 1, 1.
type rawFilter struct {
	bits      uint64
	wordCount uint64
	words     []uint64
	rowCount  uint64
	rows      [][4]uint64 // Query, Mask, Numerator, Denominator
	listCount uint64
	lens      []uint64
	deltas    []uint64 // every list's delta-coded pointers, concatenated
	packed    []byte
}

func validRawFilter() rawFilter {
	return rawFilter{
		bits: 64, wordCount: 1, words: []uint64{0b100110},
		rowCount: 2, rows: [][4]uint64{{1, 1, 1, 3}, {1, 2, 2, 3}},
		listCount: 2, lens: []uint64{1, 2}, deltas: []uint64{0, 0, 1},
		packed: []byte{0b110},
	}
}

func (f rawFilter) payload() []byte {
	var w writer
	w.uvarint(1) // one query,
	w.uvarint(1) // ID 1
	writeParams(&w, core.Params{Bits: f.bits, Hashes: 2, Samples: 2, Tolerance: core.ToleranceScaled, Seed: 5})
	w.uvarint(2) // pattern length
	w.uvarint(2) // inserted
	w.uvarint(f.wordCount)
	for _, word := range f.words {
		w.u64(word)
	}
	w.uvarint(f.rowCount)
	for _, row := range f.rows {
		for _, v := range row {
			w.uvarint(v)
		}
	}
	w.uvarint(f.listCount)
	for _, v := range append(append([]uint64(nil), f.lens...), f.deltas...) {
		w.uvarint(v)
	}
	w.buf = append(w.buf, f.packed...)
	return w.buf
}

// hostileFilter is one mutation of validRawFilter and how the decoder must
// refuse it: with the typed error is, or else in words containing says.
type hostileFilter struct {
	name   string
	mutate func(f *rawFilter)
	is     error
	says   string
}

// hostileFilters is the decoder's rejection matrix: one payload per property
// readFilter and core.FromParts enforce, each with the typed error or the
// wording it must be refused with. FuzzDecodePayload starts from all of them.
func hostileFilters() []hostileFilter {
	return []hostileFilter{
		{"more bits than words", func(f *rawFilter) { f.bits = 128 }, ErrTruncated, ""},
		{"fewer bits than words", func(f *rawFilter) { f.wordCount, f.words = 2, append(f.words, 0) }, ErrTruncated, ""},
		{"forged bit count", func(f *rawFilter) { f.bits = 1 << 40 }, ErrTruncated, ""},
		{"word count beyond the payload", func(f *rawFilter) { f.wordCount = 1 << 30 }, ErrTruncated, ""},
		{"bit set beyond Bits", func(f *rawFilter) { f.bits, f.words[0], f.packed = 60, f.words[0]|1<<63, []byte{0b0110} }, nil, "bits set beyond"},
		{"set bits without codes", func(f *rawFilter) { f.words[0] |= 0xff << 40 }, nil, "short buffer"},
		{"codes without set bits", func(f *rawFilter) { f.packed = append(f.packed, 0) }, nil, "trailing"},
		{"code beyond the dictionary", func(f *rawFilter) {
			f.listCount, f.lens, f.deltas, f.packed = 3, []uint64{1, 2, 1}, []uint64{0, 0, 1, 1}, []byte{0b110100}
		}, nil, "dictionary lists"},
		{"no dictionary under set bits", func(f *rawFilter) { f.listCount, f.lens, f.deltas, f.packed = 0, nil, nil, nil }, nil, "dictionary lists"},
		{"empty list", func(f *rawFilter) { f.lens, f.deltas = []uint64{0, 2}, []uint64{0, 1} }, nil, "empty or overruns"},
		{"repeated pointer", func(f *rawFilter) { f.deltas[2] = 0 }, nil, "unsorted pointer list"},
		{"pointer beyond the weight table", func(f *rawFilter) { f.deltas[2] = 5 }, nil, "dangling weight pointer"},
		{"nonzero pad bits", func(f *rawFilter) { f.packed[0] |= 1 << 3 }, nil, "pad bits"},
		{"weight count beyond the payload", func(f *rawFilter) { f.rowCount = 1 << 30 }, nil, "implausible"},
		{"list count beyond the payload", func(f *rawFilter) { f.listCount = 1 << 30 }, nil, "implausible"},
		{"list length beyond the payload", func(f *rawFilter) { f.lens[1] = 1 << 30 }, nil, "implausible"},
		{"list lengths beyond the payload together", func(f *rawFilter) { f.lens = []uint64{3, 3} }, nil, "remaining bytes"},
		{"numerator wraps negative", func(f *rawFilter) { f.rows[0][2] = 1 << 63 }, ErrBadWeight, ""},
		{"denominator wraps negative", func(f *rawFilter) { f.rows[0][3] = math.MaxUint64 }, ErrBadWeight, ""},
		{"zero denominator", func(f *rawFilter) { f.rows[0][2], f.rows[0][3] = 0, 0 }, ErrBadWeight, ""},
		{"zero numerator", func(f *rawFilter) { f.rows[0][2] = 0 }, ErrBadWeight, ""},
		{"weight above one", func(f *rawFilter) { f.rows[0][2] = 4 }, ErrBadWeight, ""},
	}
}

func TestFilterDecodeRejects(t *testing.T) {
	valid := Message{Kind: KindBatchQuery, Payload: validRawFilter().payload()}
	bq, err := DecodeBatchQuery(valid)
	if err != nil {
		t.Fatalf("the unmutated payload is refused: %v", err)
	}
	if again, err := EncodeBatchQuery(bq); err != nil || !bytes.Equal(again.Payload, valid.Payload) {
		t.Fatalf("the unmutated payload is not what the encoder writes for its filter (err %v):\n got % x\nwant % x", err, again.Payload, valid.Payload)
	}
	for _, tt := range hostileFilters() {
		t.Run(tt.name, func(t *testing.T) {
			f := validRawFilter()
			tt.mutate(&f)
			_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: f.payload()})
			switch {
			case err == nil:
				t.Fatal("accepted")
			case tt.is != nil && !errors.Is(err, tt.is):
				t.Fatalf("err = %v, want %v", err, tt.is)
			case !strings.Contains(err.Error(), tt.says):
				t.Fatalf("err = %v, want one saying %q", err, tt.says)
			}
		})
	}
}

// TestBatchReplyAnyPersonOrder: person IDs travel as differences, which a
// station's ascending walk keeps to a byte or two; descending, repeated and
// extreme IDs must survive all the same, and the size function stays exact.
func TestBatchReplyAnyPersonOrder(t *testing.T) {
	in := BatchReply{Station: 3, Queries: 1}
	for _, p := range []core.PersonID{900, 901, 1030, 7, 7, math.MaxUint64, 0, 1 << 63, 12} {
		in.Reports = append(in.Reports, core.Report{Person: p, WeightIDs: []core.WeightID{0}})
	}
	m := EncodeBatchReply(in)
	if len(m.Payload) != BatchReplyPayloadSize(in) {
		t.Fatalf("payload is %d B, BatchReplyPayloadSize says %d", len(m.Payload), BatchReplyPayloadSize(in))
	}
	got, err := DecodeBatchReply(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reports) != len(in.Reports) {
		t.Fatalf("%d reports, want %d", len(got.Reports), len(in.Reports))
	}
	for i, rep := range got.Reports {
		if rep.Person != in.Reports[i].Person {
			t.Fatalf("report %d: person %d, want %d", i, rep.Person, in.Reports[i].Person)
		}
	}
	// 900, then +1 and +129: two bytes, one, two — not three varints of two.
	asc := BatchReply{Reports: in.Reports[:3]}
	if got, want := BatchReplyPayloadSize(asc), 3+2+1+2+3*2; got != want {
		t.Fatalf("ascending reply is %d B, want %d", got, want)
	}
}

var (
	messageSink Message
	batchSink   BatchQuery
)

// BenchmarkBatchQueryCodec is the wire cost of the kind that carries a
// search's traffic, per benchmark shape: bytes per frame, time and
// allocations to encode at the center and to decode at a station.
func BenchmarkBatchQueryCodec(b *testing.B) {
	for _, s := range frameShapes(b) {
		m, err := EncodeBatchQuery(s.batch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(m.EncodedSize()), "B/frame")
			for i := 0; i < b.N; i++ {
				messageSink, _ = EncodeBatchQuery(s.batch)
			}
		})
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(m.EncodedSize()), "B/frame")
			for i := 0; i < b.N; i++ {
				batchSink, _ = DecodeBatchQuery(m)
			}
		})
	}
}
