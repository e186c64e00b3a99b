package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/bits"
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
// target: an absent value probes present with probability at most 1 %. A
// decoded filter must equal the encoder's in every array and weight field
// and re-encode byte for byte. An unbounded frame is one byte shorter than
// in versions 13–18, whose params block carried a tolerance byte; a person
// bound adds exactly its ends' uvarints, its presence riding on the params
// flag byte. Version 12 sent the weight rows and the
// dictionary as varints (371, 193 and 2 041 B for these three filters);
// version 11 the memory-sized bit array word by word (433, 512 and 4 895 B);
// version 9 a delta-coded index and a pointer list per set bit (5 331, 1 111
// and 11 493 B).
func TestFilterFrameSizes(t *testing.T) {
	want := map[string]int{"point": 358, "city": 120, "batch16": 1120}
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
		if !sameFilter(got.Filter, f) || !slices.Equal(got.Queries, s.batch.Queries) {
			t.Errorf("%s: the decoded filter or its queries differ from the encoder's", s.name)
		}
		again, err := EncodeBatchQuery(got)
		if err != nil || !bytes.Equal(again.Payload, m.Payload) {
			t.Errorf("%s: a decoded filter re-encodes to different bytes (err %v)", s.name, err)
		}
		// A person bound costs its flag bits nothing and each end its uvarint.
		for _, b := range [][2]core.PersonID{{300, 0}, {0, 1 << 20}, {7, 1 << 40}} {
			bounded := s.batch
			bounded.From, bounded.To = b[0], b[1]
			bm, err := EncodeBatchQuery(bounded)
			if err != nil {
				t.Fatal(err)
			}
			extra := 0
			for _, end := range b {
				if end != 0 {
					extra += uvarintLen(uint64(end))
				}
			}
			if len(bm.Payload) != len(m.Payload)+extra {
				t.Errorf("%s bounded [%d, %d): payload %d B, want %d + %d", s.name, b[0], b[1], len(bm.Payload), len(m.Payload), extra)
			}
			got, err := DecodeBatchQuery(bm)
			if err != nil || got.From != b[0] || got.To != b[1] || !sameFilter(got.Filter, f) {
				t.Errorf("%s bounded [%d, %d): decoded [%d, %d), err %v", s.name, b[0], b[1], got.From, got.To, err)
			}
		}
	}
}

// sameFilter reports whether two filters hold the same parameters, set
// bits, codes, dictionary and weight rows, Mask and Denominator included.
func sameFilter(a, b *core.Filter) bool {
	ac, ao, ai := a.Lists()
	bc, bo, bi := b.Lists()
	return a.Params() == b.Params() && a.Length() == b.Length() && a.Inserted() == b.Inserted() &&
		slices.Equal(a.Positions(), b.Positions()) && slices.Equal(ac, bc) && slices.Equal(ao, bo) &&
		slices.Equal(ai, bi) && slices.Equal(a.Weights(), b.Weights())
}

// riceBits is the length of v's Rice code with parameter r.
func riceBits(v uint64, r uint) float64 { return float64(v>>r + 1 + uint64(r)) }

// frameModel predicts a batch-query payload in bytes. The query blocks,
// params and counts are varints counted from the filter, and the
// dictionary's Rice codes from its lists. The set bits are the closed form:
// s set bits of m, each a Rice code with parameter r plus a w-bit list code.
// Gaps between s random bits of m are geometric, P(gap ≥ g) = (1 − s/m)^g,
// so a gap's Rice quotient has mean x/(1 − x) with x = (1 − s/m)^(2^r), and
// a set bit costs r + 1 + x/(1 − x) + w bits.
func frameModel(b BatchQuery) float64 {
	f := b.Filter
	p := f.Params()
	codes, offs, ids := f.Lists()
	weights := f.Weights()
	n := uvarintLen(uint64(len(b.Queries)))
	for i, j := 0, 0; i < len(weights); i = j {
		for j = i; j < len(weights) && weights[j].Query == weights[i].Query; j++ {
		}
		// A block: the ID, e (the full mask's width) and e sums, a zero sum a
		// byte and any other the numerator of its local's own row.
		e := bits.Len32(uint32(weights[j-1].Mask))
		n += uvarintLen(uint64(weights[i].Query)) + uvarintLen(uint64(e)) + e
		for _, row := range weights[i:j] {
			if row.Mask&(row.Mask-1) == 0 {
				n += uvarintLen(uint64(row.Numerator)) - 1
			}
		}
	}
	n += uvarintLen(p.Bits) + uvarintLen(uint64(p.Hashes)) + uvarintLen(uint64(p.Samples)) + uvarintLen(uint64(p.Epsilon)) + 8 + 1
	for _, end := range []core.PersonID{b.From, b.To} {
		if end != 0 {
			n += uvarintLen(uint64(end))
		}
	}
	n += uvarintLen(uint64(f.Length())) + uvarintLen(f.Inserted())
	n += uvarintLen(uint64(len(codes))) + uvarintLen(uint64(len(offs)-1)) + uvarintLen(uint64(len(ids)))

	lenRice, idRice := dictRice(uint64(len(weights)), uint64(len(offs)-1), uint64(len(ids)))
	stream := 0.0
	for d := 0; d+1 < len(offs); d++ {
		stream += riceBits(uint64(offs[d+1]-offs[d]-1), lenRice)
		next := uint64(0)
		for _, id := range ids[offs[d]:offs[d+1]] {
			stream += riceBits(uint64(id)-next, idRice)
			next = uint64(id) + 1
		}
	}
	s, m := float64(len(codes)), float64(p.Bits)
	r := core.RiceParam(p.Bits, uint64(len(codes)))
	x := math.Pow(1-s/m, math.Exp2(float64(r)))
	stream += s * (float64(r) + 1 + x/(1-x) + float64(codeWidth(len(offs)-1)))
	return float64(n) + stream/8
}

// TestWorkedBatchQueryHex pins the docs/WIRE.md worked batch-query frame to
// the live encoder.
func TestWorkedBatchQueryHex(t *testing.T) {
	enc, err := core.NewEncoder(core.Params{Bits: 64, Hashes: 2, Samples: 2, Seed: 5}, 2)
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
	// The prose's prefix round of the same query, for persons below 300: flags
	// 04 and To = 300 as ac 02, two bytes longer.
	m, err = EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1}, Filter: enc.Filter(), To: 300})
	if err != nil {
		t.Fatal(err)
	}
	const bounded = "a7d1130e2a000000" + "1b000000" + "01" + "010103" + "400202000500000000000000" + "04" + "ac02" + "0202040101" + "1c6472"
	if got := hex.EncodeToString(m.WithRequest(42).Encode()); got != bounded {
		t.Fatalf("bounded batch-query frame drifted:\n got %s\nwant %s", got, bounded)
	}
}

// TestQueryBoundRefusals: the query frame refuses a bound the encoder cannot
// have written, and the BF baseline refuses any bound at all.
func TestQueryBoundRefusals(t *testing.T) {
	for _, b := range []struct {
		flags uint8
		bound []uint64
	}{{flagFrom | flagTo, []uint64{9, 9}}, {flagFrom | flagTo, []uint64{9, 4}}, {flagFrom, []uint64{0}}, {flagTo, []uint64{0}}} {
		raw := validRawFilter()
		raw.flags, raw.bound = b.flags, b.bound
		if err := decodeAs(KindBatchQuery, raw.payload()); !errors.Is(err, ErrBadBound) {
			t.Errorf("batch query, flags %b bound %v: err = %v, want ErrBadBound", b.flags, b.bound, err)
		}
	}
	if _, err := EncodeBatchQuery(BatchQuery{From: 5, To: 2}); !errors.Is(err, ErrBadBound) {
		t.Errorf("batch query To < From encoded: err = %v, want ErrBadBound", err)
	}
	var w writer
	writeParams(&w, core.Params{Bits: 64, Hashes: 1}, 0, 9)
	w.buf = append(w.buf, varints(2, 0, 1)...)
	w.u64(0)
	if _, err := DecodeBFQuery(Message{Kind: KindBFQuery, Payload: w.buf}); !errors.Is(err, ErrBadBound) {
		t.Errorf("bounded bf query: err = %v, want ErrBadBound", err)
	}
}

// rawFilter is a batch-query payload spelled field by field, so a test can
// state any one of them wrongly. The zero mutation is a valid filter: query
// 1 with two locals summing to 1 and 2 (weight rows 1/3, 2/3 and 3/3), 64
// bits with 1, 20 and 50 set, dictionary lists [0] and [1 2], and the set
// bits carrying lists 0, 1, 1.
type rawFilter struct {
	bits     uint64
	setCount uint64
	blocks   [][]uint64 // per query: ID, local count, the locals' sums
	lists    uint64
	pointers uint64
	stream   []byte   // the dictionary, then per set bit its Rice-coded gap and list code
	flags    uint8    // ORed into the params flag byte
	bound    []uint64 // uvarints after the params flag byte
}

// The valid stream, in the order its bits are written (bitsOf packs it).
// The dictionary codes lengths less one and ID gaps both with r = 0
// (RiceParam(3−2, 2) and RiceParam(2·3, 3)): list 0 is length 0 and ID 0;
// list 1 is length 1, then ID 1 as gap 1 and ID 2 as gap 0. The set bits
// take r = RiceParam(64, 3) = 3, each gap's quotient in unary, a 0, its low
// three bits low first, and then a 1-bit code: gap 1 and code 0, gap 18 and
// code 1, gap 29 and code 1. Five zero pad bits follow.
const (
	validDict    = "0 0   10 10 0"
	validSetBits = "0 100 0   110 010 1   1110 101 1"
)

// bitsOf packs a bit string, written first bit first, low bit first into
// bytes; spaces are skipped and pad bits are zero.
func bitsOf(s string) []byte {
	var out []byte
	n := 0
	for _, c := range s {
		if c == ' ' {
			continue
		}
		if n%8 == 0 {
			out = append(out, 0)
		}
		if c == '1' {
			out[n/8] |= 1 << (n % 8)
		}
		n++
	}
	return out
}

func validRawFilter() rawFilter {
	return rawFilter{
		bits: 64, setCount: 3,
		blocks: [][]uint64{{1, 2, 1, 2}},
		lists:  2, pointers: 3,
		stream: bitsOf(validDict + validSetBits),
	}
}

// maxBitsFilter is validRawFilter at Bits = MaxBits with one set bit, the
// last: r = 31, so its gap 2³²−1 is 10 then 31 one bits, and code 0 follows.
// No array may be sized by its Bits.
func maxBitsFilter() rawFilter {
	f := validRawFilter()
	f.bits, f.setCount, f.stream = core.MaxBits, 1, bitsOf(validDict+"10"+strings.Repeat("1", 31)+"0")
	return f
}

func (f rawFilter) payload() []byte {
	var w writer
	w.uvarint(uint64(len(f.blocks)))
	for _, block := range f.blocks {
		for _, v := range block {
			w.uvarint(v)
		}
	}
	writeParams(&w, core.Params{Bits: f.bits, Hashes: 1, Samples: 2, Seed: 5}, 0, 0)
	w.buf[len(w.buf)-1] |= f.flags
	w.buf = append(w.buf, varints(f.bound...)...)
	w.uvarint(2) // pattern length
	w.uvarint(2) // inserted
	w.uvarint(f.setCount)
	w.uvarint(f.lists)
	w.uvarint(f.pointers)
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
		{"set bits without codes", func(f *rawFilter) { f.stream = f.stream[:3] }, nil, "short buffer"},
		{"truncated unary run", func(f *rawFilter) { f.stream = bitsOf(validDict + "0 100 0   110 010 1   11111") }, nil, "short buffer"},
		{"codes without set bits", func(f *rawFilter) { f.stream = append(f.stream, 0) }, nil, "trailing"},
		{"code beyond the dictionary", func(f *rawFilter) {
			// A third list, [2], makes the codes two bits wide; the last set
			// bit names list 3.
			f.lists, f.pointers = 3, 4
			f.stream = bitsOf("0 0   10 10 0   0 110   0 100 00   110 010 10   1110 101 11")
		}, nil, "dictionary lists"},
		{"no dictionary under set bits", func(f *rawFilter) {
			f.lists, f.stream = 0, bitsOf(validSetBits)
		}, nil, "hold 0 of the 3 pointers"},
		{"empty list", func(f *rawFilter) { f.lists = 4 }, nil, "a list is empty"},
		{"pointer beyond the weight table", func(f *rawFilter) {
			f.stream = bitsOf("0 0   10 10 10" + validSetBits) // list 1 is [1 3]
		}, nil, "points past the 3 weight rows"},
		{"nonzero pad bits", func(f *rawFilter) { f.stream[3] |= 1 << 5 }, nil, "pad bits"},
		{"weight count beyond the payload", func(f *rawFilter) {
			// Twenty locals declare 2²⁰ − 1 rows in 22 bytes.
			block := []uint64{1, 20}
			for range 20 {
				block = append(block, 1)
			}
			f.blocks = [][]uint64{block}
		}, nil, "implausible"},
		{"list count beyond the payload", func(f *rawFilter) { f.lists = 1 << 30 }, nil, "a list is empty"},
		{"list length beyond the payload", func(f *rawFilter) {
			f.stream = bitsOf("111110" + validSetBits) // list 0 of six pointers
		}, nil, "longer than the 2 pointers left"},
		{"list lengths beyond the payload together", func(f *rawFilter) { f.pointers = 1 << 30 }, ErrTruncated, "remaining bytes"},
		{"lists short of the pointers", func(f *rawFilter) { f.pointers = 4 }, nil, "hold 3 of the 4 pointers"},
		{"numerator wraps negative", func(f *rawFilter) { f.blocks[0][2] = 1 << 63 }, ErrBadWeight, ""},
		{"denominator wraps negative", func(f *rawFilter) { f.blocks[0][2] = math.MaxInt64 }, ErrBadWeight, ""},
		{"zero denominator", func(f *rawFilter) { f.blocks[0][2], f.blocks[0][3] = 0, 0 }, ErrBadWeight, ""},
		{"zero numerator", func(f *rawFilter) { f.blocks[0] = []uint64{1, 1, 0} }, ErrBadWeight, ""},
		{"no locals", func(f *rawFilter) { f.blocks[0] = []uint64{1, 0} }, nil, "declares 0 locals"},
		{"locals beyond MaxLocals", func(f *rawFilter) { f.blocks[0] = []uint64{1, 21} }, nil, "declares 21 locals"},
		{"query ID above 32 bits", func(f *rawFilter) { f.blocks[0][0] = 1<<32 + 1 }, nil, "overflows 32 bits"},
		{"duplicate query ID", func(f *rawFilter) { f.blocks = append(f.blocks, []uint64{1, 1, 4}) }, ErrBatchMismatch, ""},
		{"From sent as 0", func(f *rawFilter) { f.flags, f.bound = flagFrom, []uint64{0} }, ErrBadBound, "From sent as 0"},
		{"To sent as 0", func(f *rawFilter) { f.flags, f.bound = flagTo, []uint64{0} }, ErrBadBound, "To sent as 0"},
		{"To equals From", func(f *rawFilter) { f.flags, f.bound = flagFrom|flagTo, []uint64{9, 9} }, ErrBadBound, "To 9 ≤ From 9"},
		{"To below From", func(f *rawFilter) { f.flags, f.bound = flagFrom|flagTo, []uint64{9, 4} }, ErrBadBound, "To 4 ≤ From 9"},
		{"undefined params flag", func(f *rawFilter) { f.flags = 1 << 3 }, nil, "undefined bits"},
	}
}

// boundedRawFilters are validRawFilter with each shape of person bound the
// encoder writes: From only, To only, and both.
func boundedRawFilters() []rawFilter {
	var out []rawFilter
	for _, b := range []struct {
		flags uint8
		bound []uint64
	}{{flagFrom, []uint64{300}}, {flagTo, []uint64{1 << 20}}, {flagFrom | flagTo, []uint64{7, 8}}} {
		f := validRawFilter()
		f.flags, f.bound = b.flags, b.bound
		out = append(out, f)
	}
	return out
}

func TestFilterDecodeRejects(t *testing.T) {
	type valid struct {
		raw       rawFilter
		positions []uint32
	}
	valids := []valid{
		{validRawFilter(), []uint32{1, 20, 50}},
		{maxBitsFilter(), []uint32{core.MaxBits - 1}},
	}
	for _, f := range boundedRawFilters() {
		valids = append(valids, valid{f, []uint32{1, 20, 50}})
	}
	for _, tt := range valids {
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
