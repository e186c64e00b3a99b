package wire

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dimatch/internal/core"
)

var replySink BatchReply

// sortedReports orders a copy of the reports by person, then list: two
// replies carry the same (person, list) multiset exactly when their sorted
// copies are equal.
func sortedReports(reports []core.Report) []core.Report {
	out := slices.Clone(reports)
	slices.SortFunc(out, func(a, b core.Report) int {
		return cmp.Or(cmp.Compare(a.Person, b.Person), slices.Compare(a.WeightIDs, b.WeightIDs))
	})
	return out
}

func sameReports(a, b []core.Report) bool {
	return slices.EqualFunc(sortedReports(a), sortedReports(b), func(x, y core.Report) bool {
		return x.Person == y.Person && slices.Equal(x.WeightIDs, y.WeightIDs)
	})
}

// version10Size is what the previous layout (a person difference and a
// pointer list per report) took for b — the baseline the new one is measured
// against.
func version10Size(b BatchReply) int {
	n := uvarintLen(uint64(b.Station)) + uvarintLen(uint64(b.Queries)) + uvarintLen(uint64(len(b.Reports)))
	for i, rep := range b.Reports {
		person := uint64(rep.Person)
		if i > 0 {
			person = zigzag(int64(rep.Person - b.Reports[i-1].Person))
		}
		n += uvarintLen(person) + uvarintLen(uint64(len(rep.WeightIDs)))
		for _, id := range rep.WeightIDs {
			n += uvarintLen(uint64(id))
		}
	}
	return n
}

// replyShape is one station's answer as the benchmark's workloads see it
// (BENCHMARK.json), built deterministically.
type replyShape struct {
	name  string
	reply BatchReply
}

// replyShapes builds the answers to the three frameShapes rounds, shaped by
// the benchmark's per-reply averages: point — the one placed person
// (point_routed, ingest_mixed); city — 82 reports of one query on three
// one-pointer lists, most on the first (city_fanout); batch16 — 493 reports
// of sixteen queries on 29 lists (batch_verify). Persons ascend with gaps of
// up to 400, the walk order of a station over a 20 000-person city.
func replyShapes() []replyShape {
	rng := rand.New(rand.NewSource(25))
	build := func(name string, queries uint32, reports int, lists [][]core.WeightID) replyShape {
		b := BatchReply{Station: 17, Queries: queries, Reports: make([]core.Report, reports)}
		person := core.PersonID(rng.Intn(400))
		for i := range b.Reports {
			// Squaring skews the draw toward the first lists.
			list := lists[int(float64(len(lists))*math.Pow(rng.Float64(), 2))]
			b.Reports[i] = core.Report{Person: person, WeightIDs: list}
			person += core.PersonID(1 + rng.Intn(400))
		}
		return replyShape{name, b}
	}
	var batch [][]core.WeightID
	for id := core.WeightID(0); len(batch) < 29; id += 1 + core.WeightID(rng.Intn(5)) {
		batch = append(batch, []core.WeightID{id})
	}
	return []replyShape{
		build("point", 1, 1, [][]core.WeightID{{0}}),
		build("city", 1, 82, [][]core.WeightID{{0}, {3}, {5}}),
		build("batch16", 16, 493, batch),
	}
}

// TestReplyFrameSizes pins each shape's reply payload to the byte, holds it
// within 3 % of replyModel's prediction, and holds the one-report point
// reply to exactly version 10's length: a list entry costs what a report's
// pointer list did and a lone person is its varint, so only repeated lists
// and longer runs save. Version 12 sent every person gap as a varint (7, 162
// and 1 100 B for these three replies).
func TestReplyFrameSizes(t *testing.T) {
	want := map[string]int{"point": 7, "city": 121, "batch16": 960}
	for _, s := range replyShapes() {
		m := EncodeBatchReply(s.reply)
		old, model := version10Size(s.reply), replyModel(s.reply)
		t.Logf("%s: %d reports, payload %d B (model %.0f B, version 10: %d B)", s.name, len(s.reply.Reports), len(m.Payload), model, old)
		if len(m.Payload) != want[s.name] {
			t.Errorf("%s: payload %d B, want %d", s.name, len(m.Payload), want[s.name])
		}
		if math.Abs(float64(len(m.Payload))-model) > 0.03*model {
			t.Errorf("%s: payload %d B is more than 3 %% off the model's %.0f B", s.name, len(m.Payload), model)
		}
		if s.name == "point" && len(m.Payload) != old {
			t.Errorf("point: payload %d B, version 10 took %d", len(m.Payload), old)
		}
		got, err := DecodeBatchReply(m)
		if err != nil || !sameReports(got.Reports, s.reply.Reports) {
			t.Errorf("%s: round trip changed the reports (err %v)", s.name, err)
		}
	}
}

// replyModel predicts a batch-reply payload in bytes. The header and every
// entry's head, list, run length and largest person are varints counted
// from the reply's groups. The persons' stream is the closed form: a run of
// n persons up to hi codes its other n − 1 as gaps of mean about hi/n, taken
// as geometric, so with r = personRice(hi, n) and x = (1 − n/(hi+1))^(2^r)
// a gap costs r + 1 + x/(1 − x) bits, as a set bit's does in frameModel.
func replyModel(b BatchReply) float64 {
	var buf []uint64
	firsts, persons, bounds := groupReports(b.Reports, &buf)
	n := uvarintLen(uint64(b.Station)) + uvarintLen(uint64(b.Queries)) + uvarintLen(uint64(len(b.Reports)))
	stream := 0.0
	for g, first := range firsts {
		list, run := b.Reports[first].WeightIDs, persons[bounds[g]:bounds[g+1]]
		hi := run[len(run)-1]
		n += uvarintLen(uint64(len(list))<<1) + uvarintLen(hi)
		for _, id := range list {
			n += uvarintLen(uint64(id))
		}
		if g < len(firsts)-1 {
			n += uvarintLen(uint64(len(run)))
		}
		r := personRice(hi, len(run))
		x := math.Pow(1-float64(len(run))/(float64(hi)+1), math.Exp2(float64(r)))
		stream += float64(len(run)-1) * (float64(r) + 1 + x/(1-x))
	}
	return float64(n) + stream/8
}

// TestBatchReplyAnyPersonOrder: persons travel as gaps within a list's run,
// which the encoder sorts when a caller's order was not ascending —
// descending and extreme IDs, and a person on two lists, come back as the
// same multiset. The run up to 2⁶⁴−1 codes its gaps with r = 61, past a
// packed field's 32 bits.
func TestBatchReplyAnyPersonOrder(t *testing.T) {
	in := BatchReply{Station: 3, Queries: 1}
	for i, p := range []core.PersonID{900, 901, 1030, 7, 7, math.MaxUint64, 0, 1 << 63, 12} {
		in.Reports = append(in.Reports, core.Report{Person: p, WeightIDs: []core.WeightID{core.WeightID(i % 2)}})
	}
	got, err := DecodeBatchReply(EncodeBatchReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != 3 || got.Queries != 1 || !sameReports(got.Reports, in.Reports) {
		t.Fatalf("got %+v, want the reports of %+v", got, in)
	}
}

// TestBatchReplyRefusesRepeatedPerson: a station reports a person once, so a
// run naming one twice — mid-run, or again as the run's largest — is refused
// rather than handed to an aggregator that would add its weights twice.
func TestBatchReplyRefusesRepeatedPerson(t *testing.T) {
	for _, tt := range []struct {
		persons []core.PersonID
		says    string
	}{
		{[]core.PersonID{7, 7}, "reaches its run's largest"},
		{[]core.PersonID{7, 7, 9}, "repeats person 7"},
		{[]core.PersonID{3, 9, 9}, "reaches its run's largest"},
	} {
		in := BatchReply{Station: 3, Queries: 1}
		for _, p := range tt.persons {
			in.Reports = append(in.Reports, core.Report{Person: p, WeightIDs: []core.WeightID{0}})
		}
		if _, err := DecodeBatchReply(EncodeBatchReply(in)); err == nil || !strings.Contains(err.Error(), tt.says) {
			t.Fatalf("persons %v: err = %v, want one saying %q", tt.persons, err, tt.says)
		}
	}
}

// TestBatchReplyPropertyMultiset: over random replies — 1 to 4 000 reports,
// lists drawn from a small weight table, distinct persons in any order or
// ascending as a station walks — decoding the encoded reply gives back the
// reports as a multiset, and an aggregator fed the original and one fed the
// decoded reports return identical Results and TopK, with and without
// SetReplicated.
func TestBatchReplyPropertyMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var table []core.WeightEntry
	for q := core.QueryID(1); q <= 4; q++ {
		for num := int64(1); num <= 12; num += 1 + rng.Int63n(4) {
			table = append(table, core.WeightEntry{Query: q, Numerator: num, Denominator: 12})
		}
	}
	randomList := func() []core.WeightID {
		var ids []core.WeightID
		for len(ids) == 0 {
			for id := range table {
				if rng.Intn(len(table)) < 2 {
					ids = append(ids, core.WeightID(id))
				}
			}
		}
		return ids
	}
	for round := 0; round < 120; round++ {
		lists := make([][]core.WeightID, 1+rng.Intn([]int{6, 400}[rng.Intn(2)]))
		for i := range lists {
			lists[i] = randomList()
		}
		n := 1 + rng.Intn([]int{8, 300, 4000}[rng.Intn(3)])
		persons := make([]core.PersonID, n)
		for i, p := range rng.Perm(2 * n)[:n] {
			persons[i] = core.PersonID(p)
		}
		if rng.Intn(2) == 1 { // one station's walk
			slices.Sort(persons)
		}
		in := BatchReply{Station: rng.Uint32(), Queries: uint32(1 + rng.Intn(4)), Reports: make([]core.Report, n)}
		for i, p := range persons {
			in.Reports[i] = core.Report{Person: p, WeightIDs: lists[rng.Intn(len(lists))]}
		}

		got, err := DecodeBatchReply(EncodeBatchReply(in))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Station != in.Station || got.Queries != in.Queries || !sameReports(got.Reports, in.Reports) {
			t.Fatalf("round %d: %d reports decoded to a different multiset", round, n)
		}
		for _, replicated := range []func(core.PersonID) bool{nil, func(p core.PersonID) bool { return p%3 == 0 }} {
			want, have := core.NewBatchAggregator(), core.NewBatchAggregator()
			want.SetReplicated(replicated)
			have.SetReplicated(replicated)
			for i := range in.Reports {
				if err := want.AddFrom(table, in.Reports[i]); err != nil {
					t.Fatal(err)
				}
				if err := have.AddFrom(table, got.Reports[i]); err != nil {
					t.Fatal(err)
				}
			}
			byPerson := func(a, b core.Result) int { return cmp.Compare(a.Person, b.Person) }
			for q := core.QueryID(1); q <= 4; q++ {
				w, h := want.Results(q), have.Results(q)
				slices.SortFunc(w, byPerson)
				slices.SortFunc(h, byPerson)
				if !slices.Equal(w, h) || !slices.Equal(want.TopK(q, 0), have.TopK(q, 0)) || !slices.Equal(want.TopK(q, 5), have.TopK(q, 5)) {
					t.Fatalf("round %d, query %d (replicated %v): aggregation differs after the wire", round, q, replicated != nil)
				}
			}
		}
	}
}

// TestWorkedBatchReplyHex pins the docs/WIRE.md worked batch-reply frame to
// the live encoder.
func TestWorkedBatchReplyHex(t *testing.T) {
	m := EncodeBatchReply(BatchReply{Station: 3, Queries: 2, Reports: []core.Report{
		{Person: 10, WeightIDs: []core.WeightID{0}},
		{Person: 7, WeightIDs: []core.WeightID{1, 4}},
		{Person: 15, WeightIDs: []core.WeightID{0}},
	}})
	if got := hex.EncodeToString(m.WithRequest(42).Encode()); got != workedBatchReplyHex {
		t.Fatalf("batch-reply worked frame drifted:\n got %s\nwant %s", got, workedBatchReplyHex)
	}
}

// hostileReply is one reply payload spelled as its varints and the bit
// stream after them, and words the decoder's refusal must contain.
type hostileReply struct {
	name   string
	fields []uint64
	stream []byte
	says   string
}

func (h hostileReply) payload() []byte {
	var w writer
	for _, v := range h.fields {
		w.uvarint(v)
	}
	return append(w.buf, h.stream...)
}

// workedReplyFields is the worked frame's entries: station 3, two queries,
// three reports; list [0] (head 1<<1) carrying a run of two up to person
// 15, then the last list [1 4] (head 2<<1 | 1) carrying person 7.
// workedReplyStream holds the first run's other person, 10, with r =
// personRice(15, 2) = 2: its quotient 2 in unary, a 0, then its low bits,
// low first (bitsOf packs it).
var workedReplyFields = []uint64{3, 2, 3, 2, 0, 2, 15, 5, 1, 4, 7}

const workedReplyStream = "110 01"

// hostileReplies is the reply decoder's rejection matrix: one payload per
// rule DecodeBatchReply enforces. FuzzDecodePayload starts from all of them.
func hostileReplies() []hostileReply {
	with := func(at int, vals ...uint64) []uint64 {
		return append(append(slices.Clone(workedReplyFields[:at]), vals...), workedReplyFields[min(at+len(vals), len(workedReplyFields)):]...)
	}
	stream := bitsOf(workedReplyStream)
	return []hostileReply{
		{"station above 32 bits", with(0, 1<<32+3), stream, "overflows 32 bits"},
		{"echo above 32 bits", with(1, 1<<32+2), stream, "overflows 32 bits"},
		{"report count beyond the payload", with(2, 1<<30), stream, "implausible"},
		{"empty list", with(3, 0), stream, "0 pointers"},
		{"list beyond the payload", with(3, 40<<1), stream, "40 pointers"},
		{"pointer above 32 bits", with(4, 1<<32), stream, "overflows 32 bits"},
		{"zero run", with(5, 0), stream, "run of 0"},
		{"run that exhausts the count unflagged", with(5, 3), stream, "last flag is unset"},
		{"run beyond the count", with(5, 9), stream, "last flag is unset"},
		// Entry 0 flagged last takes all three reports up to 15 (r = 1:
		// persons 7 and 10 as gaps 7 and 3), and entry 1 trails the stream.
		{"last flag before the count is exhausted", []uint64{3, 2, 3, 3, 0, 15}, append(bitsOf("1110 1   10 1"), 5, 1, 4, 7), "trailing"},
		{"entry after the last", workedReplyFields, append(slices.Clone(stream), 3, 0, 8), "trailing"},
		{"no entry flagged last", with(7, 4, 1, 4, 1, 7), stream, "last flag is unset"},
		{"person overflows", workedReplyFields, bitsOf("1111 0 00"), "reaches its run's largest"},
		// The run's other person is 15, its largest, again (gap 15, r = 2).
		{"repeat of the run's largest", workedReplyFields, bitsOf("1110 11"), "reaches its run's largest"},
		// Entry 0 carries a run of three up to 15 (r = 1): person 10, then a
		// gap of 0 — person 10 again.
		{"repeated person mid-run", []uint64{3, 2, 4, 2, 0, 3, 15, 5, 1, 4, 7}, bitsOf("111110 0 0 0"), "repeats person 10"},
		// Two entries of list [0], each a run of person 5 alone: re-encoded,
		// they would be one run naming person 5 twice.
		{"list sent twice", []uint64{3, 1, 2, 2, 0, 1, 5, 3, 0, 5}, nil, "twice"},
		{"truncated", workedReplyFields, nil, "short buffer"},
		{"reports but no entries", []uint64{3, 2, 1}, nil, "implausible"},
		{"nonzero pad bits", workedReplyFields, bitsOf(workedReplyStream + "001"), "pad bits"},
	}
}

func TestBatchReplyDecodeRejects(t *testing.T) {
	worked := hostileReply{fields: workedReplyFields, stream: bitsOf(workedReplyStream)}.payload()
	if !bytes.Equal(worked, mustHex(t, workedBatchReplyHex)[HeaderSize:]) {
		t.Fatalf("the spelled payload % x is not the worked frame's", worked)
	}
	if _, err := DecodeBatchReply(Message{Kind: KindBatchReply, Payload: worked}); err != nil {
		t.Fatalf("the unmutated payload is refused: %v", err)
	}
	for _, tt := range hostileReplies() {
		t.Run(tt.name, func(t *testing.T) {
			_, err := DecodeBatchReply(Message{Kind: KindBatchReply, Payload: tt.payload()})
			if err == nil || !strings.Contains(err.Error(), tt.says) {
				t.Fatalf("err = %v, want one saying %q", err, tt.says)
			}
		})
	}
}

// BenchmarkBatchReplyCodec is the wire cost of a station's answer, per
// benchmark shape: bytes per frame, time and allocations to encode at the
// station and to decode at the center.
func BenchmarkBatchReplyCodec(b *testing.B) {
	for _, s := range replyShapes() {
		m := EncodeBatchReply(s.reply)
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(m.EncodedSize()), "B/frame")
			for i := 0; i < b.N; i++ {
				messageSink = EncodeBatchReply(s.reply)
			}
		})
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(m.EncodedSize()), "B/frame")
			for i := 0; i < b.N; i++ {
				replySink, _ = DecodeBatchReply(m)
			}
		})
	}
}
