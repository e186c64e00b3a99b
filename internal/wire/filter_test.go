package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// TestFilterFrameSizes pins each shape's payload to the byte, holds it
// within 3 % of frameModel's prediction, and holds each filter to the sizing
// target: an absent value probes present with probability at most 1 %.
// Version 11 sent the memory-sized bit array word by word (433, 512 and
// 4 895 B for these three filters); version 9 sent a delta-coded index and a
// pointer list per set bit (5 331, 1 111 and 11 493 B).
func TestFilterFrameSizes(t *testing.T) {
	want := map[string]int{"point": 371, "city": 193, "batch16": 2041}
	for _, s := range frameShapes(t) {
		m, err := EncodeBatchQuery(s.batch)
		if err != nil {
			t.Fatal(err)
		}
		f := s.batch.Filter
		codes, offs, _ := f.Lists()
		model := frameModel(s.batch)
		t.Logf("%s: payload %d B (model %.0f B): %d set bits of %d, r = %d, %d distinct lists, %d weight rows",
			s.name, len(m.Payload), model, len(codes), f.Params().Bits, core.RiceParam(f.Params().Bits, uint64(len(codes))), len(offs)-1, len(f.Weights()))
		if len(m.Payload) != want[s.name] {
			t.Errorf("%s: payload %d B, want %d", s.name, len(m.Payload), want[s.name])
		}
		if math.Abs(float64(len(m.Payload))-model) > 0.03*model {
			t.Errorf("%s: payload %d B is more than 3 %% off the model's %.0f B", s.name, len(m.Payload), model)
		}
		if fp := core.Analyze(f).ValueFPProb; fp > 0.01 {
			t.Errorf("%s: value false-positive probability %.4f above the 1 %% target", s.name, fp)
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

// frameModel predicts a batch-query payload in bytes. The query IDs, params,
// weight table and dictionary are counted from the filter's arrays. The bit
// stream is the closed form: s set bits of m, each a Rice code with parameter
// r plus a w-bit list code. Gaps between s random bits of m are geometric,
// P(gap ≥ g) = (1 − s/m)^g, so a gap's Rice quotient has mean x/(1 − x) with
// x = (1 − s/m)^(2^r), and a set bit costs r + 1 + x/(1 − x) + w bits.
func frameModel(b BatchQuery) float64 {
	f := b.Filter
	p := f.Params()
	codes, offs, ids := f.Lists()
	n := uvarintLen(uint64(len(b.Queries)))
	prev := uint64(0)
	for _, q := range b.Queries {
		n += uvarintLen(uint64(q) - prev)
		prev = uint64(q)
	}
	n += 8 + uvarintLen(uint64(p.Hashes)) + uvarintLen(uint64(p.Samples)) + uvarintLen(uint64(p.Epsilon)) + 1 + 8 + 1
	n += uvarintLen(uint64(f.Length())) + uvarintLen(f.Inserted()) + uvarintLen(uint64(len(codes)))
	n += uvarintLen(uint64(len(f.Weights())))
	for _, e := range f.Weights() {
		n += uvarintLen(uint64(e.Query)) + uvarintLen(uint64(e.Mask)) + uvarintLen(uint64(e.Numerator)) + uvarintLen(uint64(e.Denominator))
	}
	n += uvarintLen(uint64(len(offs) - 1))
	for d := 0; d+1 < len(offs); d++ {
		n += uvarintLen(uint64(offs[d+1] - offs[d]))
		prev := uint64(0)
		for _, id := range ids[offs[d]:offs[d+1]] {
			n += uvarintLen(uint64(id) - prev)
			prev = uint64(id)
		}
	}
	s, m := float64(len(codes)), float64(p.Bits)
	r := core.RiceParam(p.Bits, uint64(len(codes)))
	x := math.Pow(1-s/m, math.Exp2(float64(r)))
	perBit := float64(r) + 1 + x/(1-x) + float64(codeWidth(len(offs)-1))
	return float64(n) + s*perBit/8
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
// bits with 1, 20 and 50 set, weight rows 1/3 and 2/3 of query 1, dictionary
// lists [0] and [0 1], and the set bits carrying lists 0, 1, 1.
type rawFilter struct {
	bits      uint64
	setCount  uint64
	rowCount  uint64
	rows      [][4]uint64 // Query, Mask, Numerator, Denominator
	listCount uint64
	lens      []uint64
	deltas    []uint64 // every list's delta-coded pointers, concatenated
	stream    []byte   // per set bit its Rice-coded gap, then its list code
}

// validRawFilter's stream, low bit first, with r = RiceParam(64, 3) = 3 and
// 1-bit codes: gap 1 is 0|001, code 0; gap 18 is 110|010, code 1; gap 29 is
// 1110|101, code 1; then four zero pad bits.
func validRawFilter() rawFilter {
	return rawFilter{
		bits: 64, setCount: 3,
		rowCount: 2, rows: [][4]uint64{{1, 1, 1, 3}, {1, 2, 2, 3}},
		listCount: 2, lens: []uint64{1, 2}, deltas: []uint64{0, 0, 1},
		stream: []byte{0x62, 0x7a, 0x0d},
	}
}

// maxBitsFilter is validRawFilter at Bits = MaxBits with one set bit, the
// last: r = 31, so its gap 2³²−1 is 10 then 31 one bits, and code 0 follows.
// No array may be sized by its Bits.
func maxBitsFilter() rawFilter {
	f := validRawFilter()
	f.bits, f.setCount, f.stream = core.MaxBits, 1, []byte{0xfd, 0xff, 0xff, 0xff, 0x01}
	return f
}

func (f rawFilter) payload() []byte {
	var w writer
	w.uvarint(1) // one query,
	w.uvarint(1) // ID 1
	writeParams(&w, core.Params{Bits: f.bits, Hashes: 1, Samples: 2, Tolerance: core.ToleranceScaled, Seed: 5})
	w.uvarint(2) // pattern length
	w.uvarint(2) // inserted
	w.uvarint(f.setCount)
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
	w.buf = append(w.buf, f.stream...)
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
		{"forged bit count", func(f *rawFilter) { f.bits = 1 << 40 }, nil, "want 1.."},
		{"set count beyond the payload", func(f *rawFilter) { f.setCount = 1 << 30 }, ErrTruncated, ""},
		{"set count beyond Bits", func(f *rawFilter) { f.bits, f.setCount = 2, 3 }, ErrTruncated, ""},
		{"bit set beyond Bits", func(f *rawFilter) { f.bits = 50 }, nil, "beyond the filter's 50 bits"},
		{"set bits without codes", func(f *rawFilter) { f.stream = f.stream[:2] }, nil, "short buffer"},
		{"truncated unary run", func(f *rawFilter) { f.stream = []byte{0x62, 0xff} }, nil, "short buffer"},
		{"codes without set bits", func(f *rawFilter) { f.stream = append(f.stream, 0) }, nil, "trailing"},
		{"code beyond the dictionary", func(f *rawFilter) {
			f.listCount, f.lens, f.deltas, f.stream = 3, []uint64{1, 2, 1}, []uint64{0, 0, 1, 1}, []byte{0xc2, 0xd4, 0x75}
		}, nil, "dictionary lists"},
		{"no dictionary under set bits", func(f *rawFilter) {
			f.listCount, f.lens, f.deltas, f.stream = 0, nil, nil, []byte{0x32, 0x5d, 0x01}
		}, nil, "dictionary lists"},
		{"empty list", func(f *rawFilter) { f.lens, f.deltas = []uint64{0, 2}, []uint64{0, 1} }, nil, "empty or overruns"},
		{"repeated pointer", func(f *rawFilter) { f.deltas[2] = 0 }, nil, "unsorted pointer list"},
		{"pointer beyond the weight table", func(f *rawFilter) { f.deltas[2] = 5 }, nil, "dangling weight pointer"},
		{"nonzero pad bits", func(f *rawFilter) { f.stream[2] |= 1 << 5 }, nil, "pad bits"},
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
	for _, tt := range []struct {
		raw       rawFilter
		positions []uint32
	}{
		{validRawFilter(), []uint32{1, 20, 50}},
		{maxBitsFilter(), []uint32{core.MaxBits - 1}},
	} {
		valid := Message{Kind: KindBatchQuery, Payload: tt.raw.payload()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bq, err := DecodeBatchQuery(valid)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("the unmutated %d-bit payload is refused: %v", tt.raw.bits, err)
		}
		// A 2³²-bit array alone would be 512 MiB; what the decoder holds is
		// sized by the set bits the payload carries.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Errorf("decoding the %d-byte payload of a %d-bit filter allocated %d B", len(valid.Payload), tt.raw.bits, got)
		}
		if !slices.Equal(bq.Filter.Positions(), tt.positions) {
			t.Errorf("%d-bit payload decodes set bits %v, want %v", tt.raw.bits, bq.Filter.Positions(), tt.positions)
		}
		if again, err := EncodeBatchQuery(bq); err != nil || !bytes.Equal(again.Payload, valid.Payload) {
			t.Fatalf("the unmutated payload is not what the encoder writes for its filter (err %v):\n got % x\nwant % x", err, again.Payload, valid.Payload)
		}
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
