package wire

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dimatch/internal/bloom"
	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
)

// ---- shared blocks ----

// writeParams renders the pipeline parameters, the block every query kind
// (WBF, BF, route) carries so stations process a filter the way the center
// built it.
func writeParams(w *writer, p core.Params) {
	w.u64(p.Bits)
	w.uvarint(uint64(p.Hashes))
	w.uvarint(uint64(p.Samples))
	w.uvarint(uint64(p.Epsilon))
	w.u8(uint8(p.Tolerance))
	w.u64(p.Seed)
	w.u8(boolByte(p.PositionSalted))
}

func readParams(r *reader) core.Params {
	return core.Params{
		Bits:           r.u64(),
		Hashes:         int(r.uvarint()),
		Samples:        int(r.uvarint()),
		Epsilon:        int64(r.uvarint()),
		Tolerance:      core.ToleranceMode(r.u8()),
		Seed:           r.u64(),
		PositionSalted: r.u8() != 0,
	}
}

// writeWords renders a bit array: the word count, then the words.
func writeWords(w *writer, words []uint64) {
	w.uvarint(uint64(len(words)))
	for _, word := range words {
		w.u64(word)
	}
}

// readWords reads a bit array. The declared count is checked against the
// bytes actually present before the slice is allocated.
func readWords(r *reader) []uint64 {
	words := make([]uint64, r.count(8))
	for i := range words {
		words[i] = r.u64()
	}
	return words
}

// ---- WBF query dissemination ----

// writeFilter renders a WBF into w as core.Filter holds it: params, bit
// array, weight table, the dictionary of distinct pointer lists (every
// length, then every list's delta-coded IDs) and one dictionary code per set
// bit in bit order, packed at codeWidth bits each. Bit positions are not
// sent: they are the set bits of the array.
func writeFilter(w *writer, f *core.Filter) {
	writeParams(w, f.Params())
	w.uvarint(uint64(f.Length()))
	w.uvarint(f.Inserted())

	writeWords(w, f.Words())

	weights := f.Weights()
	w.uvarint(uint64(len(weights)))
	for _, e := range weights {
		w.uvarint(uint64(e.Query))
		w.uvarint(uint64(e.Mask))
		w.uvarint(uint64(e.Numerator))
		w.uvarint(uint64(e.Denominator))
	}

	codes, offs, ids := f.Lists()
	lists := len(offs) - 1
	w.uvarint(uint64(lists))
	for d := 0; d < lists; d++ {
		w.uvarint(uint64(offs[d+1] - offs[d]))
	}
	for d := 0; d < lists; d++ {
		prev := uint64(0)
		for _, id := range ids[offs[d]:offs[d+1]] {
			w.uvarint(uint64(id) - prev) // ids ascend within a list
			prev = uint64(id)
		}
	}

	width := codeWidth(lists)
	var acc uint64 // pending bits, low bits first; never more than 7 + width
	var have uint
	for _, code := range codes {
		acc |= uint64(code) << have
		for have += width; have >= 8; have -= 8 {
			w.u8(uint8(acc))
			acc >>= 8
		}
	}
	if have > 0 {
		w.u8(uint8(acc))
	}
}

// codeWidth returns the bits one packed dictionary code takes: enough to
// index the dictionary, none when every set bit carries the same list.
func codeWidth(lists int) uint {
	return uint(bits.Len32(uint32(max(lists, 1) - 1)))
}

// readFilter reconstructs a WBF from r into a handful of exactly-sized arrays
// that core.FromParts validates and keeps. Each is bounded by the bytes
// present before it is allocated: declared counts through reader.count, the
// code array by the words' popcount (four bytes per bit actually carried).
func readFilter(r *reader) (*core.Filter, error) {
	p := readParams(r)
	length := int(r.uvarint())
	inserted := r.uvarint()

	words := readWords(r)
	// A filter carries exactly ceil(Bits/64) words, which readWords bounds by
	// the payload present: nothing below is sized by bits never sent.
	if p.Bits == 0 || uint64(len(words)) != (p.Bits-1)/64+1 {
		return nil, fmt.Errorf("wire: filter declares %d bits but carries %d words: %w", p.Bits, len(words), ErrTruncated)
	}

	weights := make([]core.WeightEntry, r.count(4))
	for i := range weights {
		query, mask, num, den := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
		// A weight is a fraction in (0, 1] of int64s; the encoder emits no
		// zero or wrapped-negative term and no weight above 1.
		if r.err == nil && (num == 0 || num > den || den > math.MaxInt64) {
			return nil, fmt.Errorf("%w: row %d is %d/%d", ErrBadWeight, i, num, den)
		}
		weights[i] = core.WeightEntry{
			Query:       core.QueryID(query),
			Mask:        pattern.Subset(mask),
			Numerator:   int64(num),
			Denominator: int64(den),
		}
	}

	offs := make([]uint32, r.count(2)+1)
	total := 0
	for d := 1; d < len(offs); d++ {
		total += r.count(1)
		offs[d] = uint32(total)
	}
	if left := len(r.buf) - r.off; total > left { // a pointer takes a byte at least
		return nil, fmt.Errorf("wire: dictionary of %d pointers in %d remaining bytes: %w", total, left, ErrTruncated)
	}
	ids := make([]core.WeightID, total)
	for d := 1; d < len(offs); d++ {
		prev := uint64(0)
		for i := offs[d-1]; i < offs[d]; i++ {
			prev += r.uvarint()
			ids[i] = core.WeightID(prev)
		}
	}

	set := 0
	for _, word := range words {
		set += bits.OnesCount64(word)
	}
	codes := make([]uint32, set)
	width := codeWidth(len(offs) - 1)
	var acc uint64
	var have uint
	for i := range codes {
		for ; have < width; have += 8 {
			acc |= uint64(r.u8()) << have
		}
		codes[i] = uint32(acc & (1<<width - 1))
		acc >>= width
		have -= width
	}
	if r.err != nil {
		return nil, r.err
	}
	if acc != 0 {
		return nil, fmt.Errorf("wire: nonzero pad bits after %d packed list codes", set)
	}
	return core.FromParts(p, length, words, weights, offs, ids, codes, inserted)
}

// BatchQuery is one search round for one station: the IDs of every query in
// the round and the combined WBF that encodes all of them, so a round costs
// one exchange per station however many queries it carries.
type BatchQuery struct {
	// Queries are the batch's query IDs, ascending and unique. Every weight
	// entry of Filter must reference one of them.
	Queries []core.QueryID
	// Filter is the combined WBF covering all queries of the batch.
	Filter *core.Filter
}

// EncodeBatchQuery renders the batch round. Query IDs are sorted,
// de-duplicated and delta-encoded. It fails on an empty batch, on more than
// MaxBatchQueries queries (ErrBatchTooLarge), and on a filter whose weight
// table references a query outside the batch (ErrBatchMismatch).
func EncodeBatchQuery(b BatchQuery) (Message, error) {
	if len(b.Queries) == 0 {
		return Message{}, fmt.Errorf("%w: zero queries", ErrBatchMismatch)
	}
	if len(b.Queries) > MaxBatchQueries {
		return Message{}, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(b.Queries), MaxBatchQueries)
	}
	sorted := append([]core.QueryID(nil), b.Queries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	declared := make(map[core.QueryID]bool, len(sorted))
	for _, q := range sorted {
		declared[q] = true
	}
	for _, e := range b.Filter.Weights() {
		if !declared[e.Query] {
			return Message{}, fmt.Errorf("%w: weight entry references undeclared query %d", ErrBatchMismatch, e.Query)
		}
	}
	var w writer
	w.uvarint(uint64(len(sorted)))
	prev := uint64(0)
	first := true
	for _, q := range sorted {
		if !first && uint64(q) == prev {
			return Message{}, fmt.Errorf("%w: duplicate query id %d", ErrBatchMismatch, q)
		}
		w.uvarint(uint64(q) - prev)
		prev = uint64(q)
		first = false
	}
	writeFilter(&w, b.Filter)
	return Message{Kind: KindBatchQuery, Payload: w.buf}, nil
}

// DecodeBatchQuery parses and validates a batch round: the declared query
// count is bounded by MaxBatchQueries, the filter reconstructs through
// readFilter's and core.FromParts' validation, and every weight entry must
// reference a declared query. Corrupt payloads fail with typed errors —
// never a panic.
func DecodeBatchQuery(m Message) (BatchQuery, error) {
	if m.Kind != KindBatchQuery {
		return BatchQuery{}, fmt.Errorf("wire: decoding %v as batch-query", m.Kind)
	}
	r := &reader{buf: m.Payload}
	n := r.uvarint()
	if r.err != nil {
		return BatchQuery{}, r.err
	}
	if n > MaxBatchQueries {
		return BatchQuery{}, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, n, MaxBatchQueries)
	}
	if n == 0 {
		return BatchQuery{}, fmt.Errorf("%w: zero queries", ErrBatchMismatch)
	}
	out := BatchQuery{Queries: make([]core.QueryID, 0, n)}
	declared := make(map[core.QueryID]bool, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d := r.uvarint()
		if r.err != nil {
			return BatchQuery{}, r.err
		}
		if i > 0 && d == 0 {
			return BatchQuery{}, fmt.Errorf("%w: duplicate query id %d", ErrBatchMismatch, prev)
		}
		prev += d
		out.Queries = append(out.Queries, core.QueryID(prev))
		declared[core.QueryID(prev)] = true
	}
	f, err := readFilter(r)
	if err != nil {
		return BatchQuery{}, err
	}
	if err := r.done(); err != nil {
		return BatchQuery{}, err
	}
	for _, e := range f.Weights() {
		if !declared[e.Query] {
			return BatchQuery{}, fmt.Errorf("%w: weight entry references undeclared query %d", ErrBatchMismatch, e.Query)
		}
	}
	out.Filter = f
	return out, nil
}

// BatchReply answers a batch round: one station's (person, weight-pointer)
// reports covering every query of the batch, plus an echo of the batch's
// query count so the center can detect a desynchronized peer.
type BatchReply struct {
	Station uint32
	// Queries echoes the number of queries the station matched against.
	Queries uint32
	Reports []core.Report
}

// EncodeBatchReply renders the batch answer in a single exactly-sized
// allocation.
func EncodeBatchReply(b BatchReply) Message {
	payload := AppendBatchReplyPayload(make([]byte, 0, BatchReplyPayloadSize(b)), b)
	return Message{Kind: KindBatchReply, Payload: payload}
}

// AppendBatchReplyPayload appends the batch answer's payload bytes to dst and
// returns the extended slice. It allocates nothing beyond dst's own growth,
// so a station answering a batch stream can reuse one buffer across rounds.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func AppendBatchReplyPayload(dst []byte, b BatchReply) []byte {
	w := writer{buf: dst[:len(dst)]}
	w.uvarint(uint64(b.Station))
	w.uvarint(uint64(b.Queries))
	w.uvarint(uint64(len(b.Reports)))
	for i, rep := range b.Reports {
		w.uvarint(replyPerson(b.Reports, i))
		w.uvarint(uint64(len(rep.WeightIDs)))
		for _, id := range rep.WeightIDs {
			w.uvarint(uint64(id))
		}
	}
	return w.buf
}

// replyPerson returns what report i's person is sent as: the first absolute,
// the rest as the zigzagged difference from the report before. A station
// reports in ascending person order (core.MatchResidents), so differences are
// small and positive; zigzag keeps any other order encodable.
func replyPerson(reports []core.Report, i int) uint64 {
	if i == 0 {
		return uint64(reports[0].Person)
	}
	return zigzag(int64(reports[i].Person - reports[i-1].Person))
}

// BatchReplyPayloadSize returns the exact number of bytes
// AppendBatchReplyPayload will append for b.
func BatchReplyPayloadSize(b BatchReply) int {
	n := uvarintLen(uint64(b.Station)) + uvarintLen(uint64(b.Queries)) +
		uvarintLen(uint64(len(b.Reports)))
	for i, rep := range b.Reports {
		n += uvarintLen(replyPerson(b.Reports, i)) + uvarintLen(uint64(len(rep.WeightIDs)))
		for _, id := range rep.WeightIDs {
			n += uvarintLen(uint64(id))
		}
	}
	return n
}

// uvarintLen returns the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// DecodeBatchReply parses the batch answer.
func DecodeBatchReply(m Message) (BatchReply, error) {
	if m.Kind != KindBatchReply {
		return BatchReply{}, fmt.Errorf("wire: decoding %v as batch-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := BatchReply{
		Station: uint32(r.uvarint()),
		Queries: uint32(r.uvarint()),
	}
	n := r.count(2)
	out.Reports = make([]core.Report, 0, n)
	prev := core.PersonID(0)
	for i := 0; i < n; i++ {
		if v := r.uvarint(); i == 0 {
			prev = core.PersonID(v)
		} else {
			prev += core.PersonID(unzigzag(v))
		}
		rep := core.Report{Person: prev}
		ids := r.count(1)
		rep.WeightIDs = make([]core.WeightID, ids)
		for j := range rep.WeightIDs {
			rep.WeightIDs[j] = core.WeightID(r.uvarint())
		}
		out.Reports = append(out.Reports, rep)
	}
	if err := r.done(); err != nil {
		return BatchReply{}, err
	}
	return out, nil
}

// ---- BF query dissemination ----

// BFQuery bundles the baseline filter with the pipeline parameters stations
// need to process it identically.
type BFQuery struct {
	Filter *bloom.Filter
	Params core.Params
	Length int
}

// EncodeBFQuery renders the baseline dissemination message.
func EncodeBFQuery(q BFQuery) Message {
	var w writer
	writeParams(&w, q.Params)
	w.uvarint(uint64(q.Length))
	w.uvarint(q.Filter.N())
	writeWords(&w, q.Filter.Words())
	return Message{Kind: KindBFQuery, Payload: w.buf}
}

// DecodeBFQuery reconstructs the baseline query.
func DecodeBFQuery(m Message) (BFQuery, error) {
	if m.Kind != KindBFQuery {
		return BFQuery{}, fmt.Errorf("wire: decoding %v as bf-query", m.Kind)
	}
	r := &reader{buf: m.Payload}
	p := readParams(r)
	length := int(r.uvarint())
	n := r.uvarint()
	words := readWords(r)
	if err := r.done(); err != nil {
		return BFQuery{}, err
	}
	f, err := bloom.FromParts(words, p.Bits, p.Hashes, p.Seed, n)
	if err != nil {
		return BFQuery{}, err
	}
	return BFQuery{Filter: f, Params: p, Length: length}, nil
}

// ---- BF matches ----

// BFMatches is the baseline's report: bare person IDs, no weights.
type BFMatches struct {
	Station uint32
	Persons []core.PersonID
}

// EncodeBFMatches renders the baseline match list.
func EncodeBFMatches(b BFMatches) Message {
	var w writer
	w.uvarint(uint64(b.Station))
	w.uvarint(uint64(len(b.Persons)))
	for _, p := range b.Persons {
		w.uvarint(uint64(p))
	}
	return Message{Kind: KindBFMatches, Payload: w.buf}
}

// DecodeBFMatches parses the baseline match list.
func DecodeBFMatches(m Message) (BFMatches, error) {
	if m.Kind != KindBFMatches {
		return BFMatches{}, fmt.Errorf("wire: decoding %v as bf-matches", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := BFMatches{Station: uint32(r.uvarint())}
	n := r.count(1)
	out.Persons = make([]core.PersonID, n)
	for i := range out.Persons {
		out.Persons[i] = core.PersonID(r.uvarint())
	}
	if err := r.done(); err != nil {
		return BFMatches{}, err
	}
	return out, nil
}

// ---- raw-pattern pull: dump ----

// Dump asks a station for the raw local patterns of specific persons, or —
// with an empty person filter — for its entire resident store. Every reader
// of raw patterns sends it: the naive baseline (the paper's Approach 1, whole
// store), the verification phase ("... sent to the data center for
// aggregation and verification", Section I; the ranked candidates), the pull
// half of re-replication (the placed persons) and a region's upward digest
// (whole store).
type Dump struct {
	// Persons restricts the dump; empty means every resident. IDs are sent
	// sorted and delta-encoded.
	Persons []core.PersonID
}

// EncodeDump renders the pull request.
func EncodeDump(d Dump) Message {
	sorted := append([]core.PersonID(nil), d.Persons...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var w writer
	w.uvarint(uint64(len(sorted)))
	prev := uint64(0)
	for _, p := range sorted {
		w.uvarint(uint64(p) - prev)
		prev = uint64(p)
	}
	return Message{Kind: KindDump, Payload: w.buf}
}

// DecodeDump parses the pull request.
func DecodeDump(m Message) (Dump, error) {
	if m.Kind != KindDump {
		return Dump{}, fmt.Errorf("wire: decoding %v as dump", m.Kind)
	}
	r := &reader{buf: m.Payload}
	n := r.count(1)
	out := Dump{}
	if n > 0 {
		out.Persons = make([]core.PersonID, n)
	}
	prev := uint64(0)
	for i := range out.Persons {
		prev += r.uvarint()
		out.Persons[i] = core.PersonID(prev)
	}
	if err := r.done(); err != nil {
		return Dump{}, err
	}
	return out, nil
}

// DumpReply is a station's answer to KindDump: the requested (person, local
// pattern) tuples it actually holds, person-ID ascending. Persons the
// station does not hold are simply absent.
type DumpReply struct {
	Station uint32
	Persons []core.PersonID
	Locals  []pattern.Pattern
}

// EncodeDumpReply renders the dump answer.
func EncodeDumpReply(d DumpReply) (Message, error) {
	if len(d.Persons) != len(d.Locals) {
		return Message{}, fmt.Errorf("wire: %d persons but %d locals", len(d.Persons), len(d.Locals))
	}
	w := writer{buf: make([]byte, 0, uvarintLen(uint64(d.Station))+rowsSize(d.Persons, d.Locals))}
	w.uvarint(uint64(d.Station))
	writeRows(&w, d.Persons, d.Locals)
	return Message{Kind: KindDumpReply, Payload: w.buf}, nil
}

// DecodeDumpReply parses the dump answer.
func DecodeDumpReply(m Message) (DumpReply, error) {
	if m.Kind != KindDumpReply {
		return DumpReply{}, fmt.Errorf("wire: decoding %v as dump-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := DumpReply{Station: uint32(r.uvarint())}
	out.Persons, out.Locals = readRows(r)
	if err := r.done(); err != nil {
		return DumpReply{}, err
	}
	return out, nil
}

// ---- (person, pattern) rows: the body shared by dump replies, ingest
// requests, WAL ingest records and snapshot chunks ----

// rowsSize returns the exact number of bytes writeRows will append.
func rowsSize(persons []core.PersonID, locals []pattern.Pattern) int {
	n := uvarintLen(uint64(len(persons)))
	for i, p := range persons {
		n += uvarintLen(uint64(p)) + uvarintLen(uint64(len(locals[i])))
		for _, v := range locals[i] {
			n += uvarintLen(zigzag(v))
		}
	}
	return n
}

// writeRows appends the row count and then, per row, the person, the pattern
// length and the zigzagged values. Callers size w from rowsSize: a bulk load
// is megabytes of varints, and growing into it by doubling allocates several
// times the payload.
func writeRows(w *writer, persons []core.PersonID, locals []pattern.Pattern) {
	w.uvarint(uint64(len(persons)))
	for i, p := range persons {
		w.uvarint(uint64(p))
		w.uvarint(uint64(len(locals[i])))
		for _, v := range locals[i] {
			w.uvarint(zigzag(v))
		}
	}
}

// readRows parses what writeRows wrote, which must be the rest of the
// payload. All pattern values land in one arena — a per-row allocation
// dominates bulk replays (snapshot chunks, WAL recovery, Rebalance copies) —
// and the arena is sized exactly before a value is read: a varint ends in
// exactly one byte below 0x80, so the bytes after the row count hold as many
// varints as they have such bytes, two per row are the person and the length,
// and the rest are values. The count can only overstate a malformed payload's
// values and never exceeds the payload's byte length, so it is no allocation
// vector; rows that claim more than it are rejected. Each row is a capped
// view, so an append on one pattern cannot bleed into its neighbor.
func readRows(r *reader) ([]core.PersonID, []pattern.Pattern) {
	n := r.count(2)
	values := -2 * n
	for _, b := range r.buf[r.off:] {
		if b < 0x80 {
			values++
		}
	}
	if values < 0 {
		values = 0 // fewer varints than the rows need: the reads below fail
	}
	persons := make([]core.PersonID, 0, n)
	locals := make([]pattern.Pattern, 0, n)
	arena := make([]int64, values)
	for i := 0; i < n && r.err == nil; i++ {
		persons = append(persons, core.PersonID(r.uvarint()))
		l := r.count(1)
		if l > len(arena) {
			r.fail(fmt.Errorf("wire: row of %d values where %d remain in the payload", l, len(arena)))
			break
		}
		row := arena[:l:l]
		arena = arena[l:]
		for j := range row {
			row[j] = unzigzag(r.uvarint())
		}
		locals = append(locals, pattern.Pattern(row))
	}
	return persons, locals
}

// ---- routing: summary ----

// SummaryReply carries one station's routing summary: the Bloom digest of
// every resident pattern's accumulated cells, which the coordinator caches
// and probes to decide whether a search batch needs to visit the station at
// all. The filter parameters travel with the words so the coordinator
// reconstructs the exact key space the station inserted into; Residents is
// diagnostic (how many patterns the digest covers).
type SummaryReply struct {
	Station   uint32
	Length    uint32
	Residents uint64
	Seed      uint64
	Bits      uint64
	Hashes    uint32
	Inserted  uint64
	Words     []uint64
	// ParamEpoch is the adaptive parameter epoch the digest was built
	// under, zero for the static table. When nonzero, Hashes is zero on the
	// wire and a per-group geometry table follows the words.
	ParamEpoch uint64
}

// EncodeSummaryPayload renders a routing summary's payload bytes without the
// message envelope. The station WAL (internal/store/wal) persists the
// memoized digest in exactly this form, so a recovered digest is
// byte-comparable with what the station last served. A digest built under an
// adaptive plan writes 0 in the hash-count field (no static filter has zero
// hashes) and appends its parameter epoch plus the per-group geometry table
// after the words, so the payload stays self-contained.
func EncodeSummaryPayload(s *index.Summary, station uint32) []byte {
	var w writer
	w.uvarint(uint64(station))
	w.uvarint(uint64(s.Length()))
	w.uvarint(s.Residents())
	w.u64(s.Seed())
	w.u64(s.Bits())
	w.uvarint(uint64(s.Hashes()))
	w.uvarint(s.Inserted())
	writeWords(&w, s.Words())
	if s.Adaptive() {
		w.uvarint(s.AdaptiveEpoch())
		for _, g := range s.Geometry() {
			w.uvarint(g.Bits)
			w.u8(g.Hashes)
			w.uvarint(uint64(g.Quantum))
		}
	}
	return w.buf
}

// EncodeSummaryReply renders a station's routing summary from its parts.
func EncodeSummaryReply(s *index.Summary, station uint32) Message {
	return Message{Kind: KindSummaryReply, Payload: EncodeSummaryPayload(s, station)}
}

// DecodeSummaryPayload parses a routing summary's payload bytes,
// reconstructing the probeable filter through index.FromParts (which
// validates the word count against the declared bit length) or, for an
// adaptive digest (hash-count field 0), through index.AdaptiveFromParts
// after reading the trailing geometry table.
func DecodeSummaryPayload(payload []byte) (SummaryReply, *index.Summary, error) {
	r := &reader{buf: payload}
	out := SummaryReply{
		Station:   uint32(r.uvarint()),
		Length:    uint32(r.uvarint()),
		Residents: r.uvarint(),
		Seed:      r.u64(),
		Bits:      r.u64(),
		Hashes:    uint32(r.uvarint()),
		Inserted:  r.uvarint(),
	}
	out.Words = readWords(r)
	if out.Hashes != 0 {
		if err := r.done(); err != nil {
			return SummaryReply{}, nil, err
		}
		s, err := index.FromParts(int(out.Length), out.Seed, out.Words, out.Bits, int(out.Hashes), out.Inserted, out.Residents)
		if err != nil {
			return SummaryReply{}, nil, err
		}
		return out, s, nil
	}
	// Adaptive digest: parameter epoch plus one geometry entry per position
	// group. The group count is pinned to Length (no separate count field
	// to forge) and the summed group bits must match the declared total.
	out.ParamEpoch = r.uvarint()
	if out.Length == 0 || int64(out.Length) > index.MaxPlanGroups {
		return SummaryReply{}, nil, fmt.Errorf("wire: adaptive summary length %d outside [1, %d]", out.Length, index.MaxPlanGroups)
	}
	geoms := make([]index.GroupGeom, out.Length)
	var total uint64
	for i := range geoms {
		geoms[i] = index.GroupGeom{
			Bits:    r.uvarint(),
			Hashes:  r.u8(),
			Quantum: int64(r.uvarint()),
		}
		total += geoms[i].Bits
	}
	if err := r.done(); err != nil {
		return SummaryReply{}, nil, err
	}
	if total != out.Bits {
		return SummaryReply{}, nil, fmt.Errorf("wire: adaptive summary group bits %d disagree with declared total %d", total, out.Bits)
	}
	s, err := index.AdaptiveFromParts(int(out.Length), out.Seed, out.ParamEpoch, geoms, out.Words, out.Inserted, out.Residents)
	if err != nil {
		return SummaryReply{}, nil, err
	}
	return out, s, nil
}

// DecodeSummaryReply parses a routing summary message.
func DecodeSummaryReply(m Message) (SummaryReply, *index.Summary, error) {
	if m.Kind != KindSummaryReply {
		return SummaryReply{}, nil, fmt.Errorf("wire: decoding %v as summary-reply", m.Kind)
	}
	return DecodeSummaryPayload(m.Payload)
}

// ---- hierarchy: route delegation ----

// RouteQuery delegates one whole search round to a region coordinator: the
// raw queries plus every knob the region needs to resolve the exact same
// filter parameters the root would (core.SizedParams is deterministic, so
// shipping the knobs — not the filter — keeps the frame small and the
// regions' results byte-identical to a direct search). The region runs the
// full existing WBF search path over its own stations and answers with raw
// per-person weight sums (KindRouteReply); ranking, thresholding and
// verification stay at the root, which is what makes the delegated plan's
// results provably equal to a flat fan-out.
type RouteQuery struct {
	// Queries is the search batch, ascending and unique by ID.
	Queries []core.Query
	// Params are the root's (possibly zero-valued) filter parameters before
	// sizing; Bits == 0 means the region auto-sizes with TargetFP exactly
	// like the root does.
	Params core.Params
	// TargetFP is the false-positive sizing target for auto-sized filters.
	TargetFP float64
	// BatchSize is the root's batching bound, forwarded so the region's
	// station exchanges match a direct search's.
	BatchSize int
	// Routing is the region's fan-out mode, as a RoutingMode ordinal: 0
	// summary, 1 full, and any other value is planned as summary. Either
	// yields identical results; forwarding the root's choice keeps cost
	// accounting comparable.
	Routing uint8
}

// EncodeRouteQuery renders the delegated round. Queries are validated for
// count only; the region re-validates them through its own search path.
func EncodeRouteQuery(q RouteQuery) (Message, error) {
	if len(q.Queries) == 0 {
		return Message{}, fmt.Errorf("%w: zero queries", ErrBatchMismatch)
	}
	if len(q.Queries) > MaxBatchQueries {
		return Message{}, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(q.Queries), MaxBatchQueries)
	}
	var w writer
	w.uvarint(uint64(len(q.Queries)))
	for _, query := range q.Queries {
		w.uvarint(uint64(query.ID))
		w.uvarint(uint64(len(query.Locals)))
		for _, local := range query.Locals {
			w.uvarint(uint64(len(local)))
			for _, v := range local {
				w.uvarint(zigzag(v))
			}
		}
	}
	writeParams(&w, q.Params)
	w.u64(math.Float64bits(q.TargetFP))
	w.uvarint(zigzag(int64(q.BatchSize)))
	w.u8(q.Routing)
	return Message{Kind: KindRouteQuery, Payload: w.buf}, nil
}

// DecodeRouteQuery parses the delegated round.
func DecodeRouteQuery(m Message) (RouteQuery, error) {
	if m.Kind != KindRouteQuery {
		return RouteQuery{}, fmt.Errorf("wire: decoding %v as route-query", m.Kind)
	}
	r := &reader{buf: m.Payload}
	n := r.count(2)
	if uint64(n) > MaxBatchQueries {
		return RouteQuery{}, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, n, MaxBatchQueries)
	}
	if r.err == nil && n == 0 {
		return RouteQuery{}, fmt.Errorf("%w: zero queries", ErrBatchMismatch)
	}
	out := RouteQuery{Queries: make([]core.Query, 0, n)}
	for i := 0; i < n; i++ {
		q := core.Query{ID: core.QueryID(r.uvarint())}
		locals := r.count(1)
		q.Locals = make([]pattern.Pattern, 0, locals)
		for j := 0; j < locals; j++ {
			l := r.count(1)
			pat := make(pattern.Pattern, l)
			for g := range pat {
				pat[g] = unzigzag(r.uvarint())
			}
			q.Locals = append(q.Locals, pat)
		}
		out.Queries = append(out.Queries, q)
	}
	out.Params = readParams(r)
	out.TargetFP = math.Float64frombits(r.u64())
	out.BatchSize = int(unzigzag(r.uvarint()))
	out.Routing = r.u8()
	if err := r.done(); err != nil {
		return RouteQuery{}, err
	}
	return out, nil
}

// RouteResult is one raw per-(query, person) partial from a region: the
// summed weight numerator over the region's stations, before the root's
// Algorithm 3 deletion and ranking.
type RouteResult struct {
	Query       core.QueryID
	Person      core.PersonID
	Numerator   int64
	Denominator int64
	Stations    uint32
}

// RouteReply answers a route query: the region's raw partial results plus
// the routing counters the root folds into its CostReport.
type RouteReply struct {
	// Region is the answering region coordinator's station ID.
	Region uint32
	// Results are the raw partials, one per (query, person) the region's
	// stations reported.
	Results []RouteResult
	// Probes counts the digest-probe (Admits) evaluations the region's own
	// planning performed.
	Probes uint64
	// Pruned / Visited / Failed count the region's stations by fan-out fate.
	Pruned  uint32
	Visited uint32
	Failed  uint32
	// Hops is the tier depth below and including this region (1 for a region
	// of plain stations).
	Hops uint32
}

// EncodeRouteReply renders the region's answer.
func EncodeRouteReply(rr RouteReply) Message {
	var w writer
	w.uvarint(uint64(rr.Region))
	w.uvarint(rr.Probes)
	w.uvarint(uint64(rr.Pruned))
	w.uvarint(uint64(rr.Visited))
	w.uvarint(uint64(rr.Failed))
	w.uvarint(uint64(rr.Hops))
	w.uvarint(uint64(len(rr.Results)))
	for _, res := range rr.Results {
		w.uvarint(uint64(res.Query))
		w.uvarint(uint64(res.Person))
		w.uvarint(zigzag(res.Numerator))
		w.uvarint(zigzag(res.Denominator))
		w.uvarint(uint64(res.Stations))
	}
	return Message{Kind: KindRouteReply, Payload: w.buf}
}

// DecodeRouteReply parses the region's answer.
func DecodeRouteReply(m Message) (RouteReply, error) {
	if m.Kind != KindRouteReply {
		return RouteReply{}, fmt.Errorf("wire: decoding %v as route-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := RouteReply{
		Region:  uint32(r.uvarint()),
		Probes:  r.uvarint(),
		Pruned:  uint32(r.uvarint()),
		Visited: uint32(r.uvarint()),
		Failed:  uint32(r.uvarint()),
		Hops:    uint32(r.uvarint()),
	}
	n := r.count(5)
	out.Results = make([]RouteResult, 0, n)
	for i := 0; i < n; i++ {
		out.Results = append(out.Results, RouteResult{
			Query:       core.QueryID(r.uvarint()),
			Person:      core.PersonID(r.uvarint()),
			Numerator:   unzigzag(r.uvarint()),
			Denominator: unzigzag(r.uvarint()),
			Stations:    uint32(r.uvarint()),
		})
	}
	if err := r.done(); err != nil {
		return RouteReply{}, err
	}
	return out, nil
}

// ---- lifecycle: ingest / evict / stats / ack ----

// Ingest adds (or replaces) resident patterns at one station — the center
// forwarding freshly observed call data. It travels over the target
// station's own link, so no station field is needed.
type Ingest struct {
	Persons []core.PersonID
	Locals  []pattern.Pattern
}

// EncodeIngestPayload renders an ingest batch's payload bytes without the
// message envelope. The station WAL (internal/store/wal) persists applied
// batches in exactly this form, so persistence and the wire share one codec.
func EncodeIngestPayload(in Ingest) ([]byte, error) {
	if len(in.Persons) != len(in.Locals) {
		return nil, fmt.Errorf("wire: %d persons but %d locals", len(in.Persons), len(in.Locals))
	}
	w := writer{buf: make([]byte, 0, rowsSize(in.Persons, in.Locals))}
	writeRows(&w, in.Persons, in.Locals)
	return w.buf, nil
}

// EncodeIngest renders the ingest request.
func EncodeIngest(in Ingest) (Message, error) {
	payload, err := EncodeIngestPayload(in)
	if err != nil {
		return Message{}, err
	}
	return Message{Kind: KindIngest, Payload: payload}, nil
}

// DecodeIngestPayload parses an ingest batch's payload bytes.
func DecodeIngestPayload(payload []byte) (Ingest, error) {
	r := &reader{buf: payload}
	var out Ingest
	out.Persons, out.Locals = readRows(r)
	if err := r.done(); err != nil {
		return Ingest{}, err
	}
	return out, nil
}

// DecodeIngest parses the ingest request.
func DecodeIngest(m Message) (Ingest, error) {
	if m.Kind != KindIngest {
		return Ingest{}, fmt.Errorf("wire: decoding %v as ingest", m.Kind)
	}
	return DecodeIngestPayload(m.Payload)
}

// Evict removes residents from one station. Person IDs are sent sorted and
// delta-encoded, like Dump.
type Evict struct {
	Persons []core.PersonID
}

// EncodeEvictPayload renders an evict batch's payload bytes without the
// message envelope (sorted, delta-encoded) — shared with the station WAL.
func EncodeEvictPayload(e Evict) []byte {
	sorted := append([]core.PersonID(nil), e.Persons...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var w writer
	w.uvarint(uint64(len(sorted)))
	prev := uint64(0)
	for _, p := range sorted {
		w.uvarint(uint64(p) - prev)
		prev = uint64(p)
	}
	return w.buf
}

// EncodeEvict renders the evict request.
func EncodeEvict(e Evict) Message {
	return Message{Kind: KindEvict, Payload: EncodeEvictPayload(e)}
}

// DecodeEvictPayload parses an evict batch's payload bytes.
func DecodeEvictPayload(payload []byte) (Evict, error) {
	r := &reader{buf: payload}
	n := r.count(1)
	out := Evict{Persons: make([]core.PersonID, n)}
	prev := uint64(0)
	for i := range out.Persons {
		prev += r.uvarint()
		out.Persons[i] = core.PersonID(prev)
	}
	if err := r.done(); err != nil {
		return Evict{}, err
	}
	return out, nil
}

// DecodeEvict parses the evict request.
func DecodeEvict(m Message) (Evict, error) {
	if m.Kind != KindEvict {
		return Evict{}, fmt.Errorf("wire: decoding %v as evict", m.Kind)
	}
	return DecodeEvictPayload(m.Payload)
}

// StatsReply is one station's answer to KindStats: how many residents it
// holds, the raw bytes they occupy, and the pattern length it serves (0 when
// empty) — which doubles as a handshake check when a link joins a cluster.
type StatsReply struct {
	Station      uint32
	Residents    uint64
	StorageBytes uint64
	Length       uint32
	// Flags carries the peer's capability bits (FlagRouteDelegate); zero is
	// a plain station.
	Flags uint8
}

// FlagRouteDelegate marks a peer that answers KindRouteQuery — a region
// coordinator fronting a subtree of stations rather than a plain station.
// Sending a route query to a plain station would fail its serve loop, so the
// root only delegates to peers that set this bit.
const FlagRouteDelegate = uint8(1)

// EncodeStatsReply renders the stats answer.
func EncodeStatsReply(s StatsReply) Message {
	var w writer
	w.uvarint(uint64(s.Station))
	w.uvarint(s.Residents)
	w.uvarint(s.StorageBytes)
	w.uvarint(uint64(s.Length))
	w.u8(s.Flags)
	return Message{Kind: KindStatsReply, Payload: w.buf}
}

// DecodeStatsReply parses the stats answer.
func DecodeStatsReply(m Message) (StatsReply, error) {
	if m.Kind != KindStatsReply {
		return StatsReply{}, fmt.Errorf("wire: decoding %v as stats-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := StatsReply{
		Station:      uint32(r.uvarint()),
		Residents:    r.uvarint(),
		StorageBytes: r.uvarint(),
		Length:       uint32(r.uvarint()),
		Flags:        r.u8(),
	}
	if err := r.done(); err != nil {
		return StatsReply{}, err
	}
	return out, nil
}

// Ack acknowledges an applied mutation: Applied counts the residents the
// station actually inserted, replaced or removed.
type Ack struct {
	Station uint32
	Applied uint64
}

// EncodeAck renders the acknowledgment.
func EncodeAck(a Ack) Message {
	var w writer
	w.uvarint(uint64(a.Station))
	w.uvarint(a.Applied)
	return Message{Kind: KindAck, Payload: w.buf}
}

// DecodeAck parses the acknowledgment.
func DecodeAck(m Message) (Ack, error) {
	if m.Kind != KindAck {
		return Ack{}, fmt.Errorf("wire: decoding %v as ack", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := Ack{Station: uint32(r.uvarint()), Applied: r.uvarint()}
	if err := r.done(); err != nil {
		return Ack{}, err
	}
	return out, nil
}

// ---- trivial messages ----

// StatsMessage asks a station for its resident count and storage footprint.
func StatsMessage() Message { return Message{Kind: KindStats} }

// SummaryMessage asks a station for its routing summary.
func SummaryMessage() Message { return Message{Kind: KindSummary} }

// ShutdownMessage tells a station loop to exit.
func ShutdownMessage() Message { return Message{Kind: KindShutdown} }

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// ---- adaptive parameters ----

// ParamUpdate ships a traffic-adaptive parameter plan to a station.
// A nil Plan orders the station back onto the static table; a non-nil Plan
// carries the per-group weights, hash counts and quanta the station resolves
// against its own memory budget. Epoch is the parameter epoch the update
// installs — it must match Plan.Epoch when a plan is present, and stations
// ignore updates whose epoch does not advance theirs.
type ParamUpdate struct {
	Epoch uint64
	Plan  *index.Plan
}

// EncodeParamUpdate renders a parameter rollout frame. It rejects plans that
// fail validation or whose epoch disagrees with the update's, so a malformed
// solver output can never reach the wire.
func EncodeParamUpdate(u ParamUpdate) (Message, error) {
	if u.Plan != nil {
		if err := u.Plan.Validate(); err != nil {
			return Message{}, fmt.Errorf("wire: param-update plan: %w", err)
		}
		if u.Plan.Epoch != u.Epoch {
			return Message{}, fmt.Errorf("wire: param-update epoch %d disagrees with plan epoch %d",
				u.Epoch, u.Plan.Epoch)
		}
	}
	var w writer
	w.u64(u.Epoch)
	w.u8(boolByte(u.Plan != nil))
	if u.Plan != nil {
		w.u64(u.Plan.Seed)
		w.uvarint(uint64(u.Plan.Length))
		for _, g := range u.Plan.Groups {
			w.uvarint(uint64(g.Weight))
			w.u8(g.Hashes)
			w.uvarint(uint64(g.Quantum))
		}
	}
	return Message{Kind: KindParamUpdate, Payload: w.buf}, nil
}

// DecodeParamUpdate parses a parameter rollout frame, re-validating the plan
// so a corrupted or hostile frame cannot install unsound parameters.
func DecodeParamUpdate(m Message) (ParamUpdate, error) {
	if m.Kind != KindParamUpdate {
		return ParamUpdate{}, fmt.Errorf("wire: decoding %v as param-update", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := ParamUpdate{Epoch: r.u64()}
	has := r.u8()
	if has > 1 {
		return ParamUpdate{}, fmt.Errorf("wire: param-update plan marker %d is not a boolean", has)
	}
	if has == 0 {
		if err := r.done(); err != nil {
			return ParamUpdate{}, err
		}
		return out, nil
	}
	seed := r.u64()
	length := r.count(3)
	if length > index.MaxPlanGroups {
		return ParamUpdate{}, fmt.Errorf("wire: param-update declares %d groups (max %d)",
			length, index.MaxPlanGroups)
	}
	groups := make([]index.PlanGroup, length)
	for i := range groups {
		groups[i] = index.PlanGroup{
			Weight:  uint32(r.uvarint()),
			Hashes:  r.u8(),
			Quantum: int64(r.uvarint()),
		}
	}
	if err := r.done(); err != nil {
		return ParamUpdate{}, err
	}
	plan := &index.Plan{Epoch: out.Epoch, Seed: seed, Length: length, Groups: groups}
	if err := plan.Validate(); err != nil {
		return ParamUpdate{}, fmt.Errorf("wire: param-update plan: %w", err)
	}
	out.Plan = plan
	return out, nil
}

// ParamAck is a station's answer to a ParamUpdate: which epoch it now runs
// and whether the plan was applied (false means the station fell back to the
// static table — the coordinator must not assume adaptive pruning there).
type ParamAck struct {
	Station uint32
	Epoch   uint64
	Applied bool
}

// EncodeParamAck renders a parameter acknowledgement.
func EncodeParamAck(a ParamAck) Message {
	var w writer
	w.uvarint(uint64(a.Station))
	w.u64(a.Epoch)
	w.u8(boolByte(a.Applied))
	return Message{Kind: KindParamAck, Payload: w.buf}
}

// DecodeParamAck parses a parameter acknowledgement.
func DecodeParamAck(m Message) (ParamAck, error) {
	if m.Kind != KindParamAck {
		return ParamAck{}, fmt.Errorf("wire: decoding %v as param-ack", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := ParamAck{
		Station: uint32(r.uvarint()),
		Epoch:   r.u64(),
	}
	applied := r.u8()
	if applied > 1 {
		return ParamAck{}, fmt.Errorf("wire: param-ack applied marker %d is not a boolean", applied)
	}
	out.Applied = applied == 1
	if err := r.done(); err != nil {
		return ParamAck{}, err
	}
	return out, nil
}

// zigzag maps signed to unsigned so small-magnitude values stay short.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
