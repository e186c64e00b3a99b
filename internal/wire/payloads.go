package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"dimatch/internal/bloom"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// ---- shared blocks ----

// The params block's last byte is a flag byte: PositionSalted, then whether a
// person bound's From and To follow it as uvarints.
const (
	flagSalted = 1 << iota
	flagFrom
	flagTo
)

// writeParams renders the pipeline parameters, the block every query kind
// (WBF, BF, route) carries so stations process a filter the way the center
// built it, and the query's person bound [from, to): each end that is not
// zero sets its flag bit and follows the flag byte as a uvarint, so an
// unbounded block costs nothing for the bound.
func writeParams(w *writer, p core.Params, from, to core.PersonID) {
	w.uvarint(p.Bits)
	w.uvarint(uint64(p.Hashes))
	w.uvarint(uint64(p.Samples))
	w.u64(p.Seed)
	flags := boolByte(p.PositionSalted)
	if from != 0 {
		flags |= flagFrom
	}
	if to != 0 {
		flags |= flagTo
	}
	w.u8(flags)
	if from != 0 {
		w.uvarint(uint64(from))
	}
	if to != 0 {
		w.uvarint(uint64(to))
	}
}

// readParams reads writeParams' block. It refuses an undefined flag bit, a
// bound sent as 0 (the encoder sends none) and, with both ends set, To ≤
// From (ErrBadBound), so a block it accepts is one the encoder writes.
func readParams(r *reader) (p core.Params, from, to core.PersonID) {
	p = core.Params{
		Bits:    r.uvarint(),
		Hashes:  int(r.uvarint()),
		Samples: int(r.uvarint()),
		Seed:    r.u64(),
	}
	flags := r.u8()
	if flags&^(flagSalted|flagFrom|flagTo) != 0 {
		r.fail(fmt.Errorf("wire: params flag byte %#02x sets undefined bits", flags))
	}
	p.PositionSalted = flags&flagSalted != 0
	if flags&flagFrom != 0 {
		if from = core.PersonID(r.uvarint()); from == 0 {
			r.fail(fmt.Errorf("%w: From sent as 0", ErrBadBound))
		}
	}
	if flags&flagTo != 0 {
		if to = core.PersonID(r.uvarint()); to == 0 {
			r.fail(fmt.Errorf("%w: To sent as 0", ErrBadBound))
		}
	}
	if err := checkBound(from, to); err != nil {
		r.fail(err)
	}
	return p, from, to
}

// checkBound refuses a person bound whose ends are both set with To ≤ From:
// it admits nobody, and no search sends one.
func checkBound(from, to core.PersonID) error {
	if from != 0 && to != 0 && to <= from {
		return fmt.Errorf("%w: To %d ≤ From %d", ErrBadBound, to, from)
	}
	return nil
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

// writeQueries renders a filter's weight table as one block per query, in
// table order: the query's ID, its local count e and its locals' value sums,
// all core.WeightRows needs to rebuild the query's rows. A query's sums are
// read off its rows — local j's is the numerator of the row of mask {j}, 0
// without one, and e is the width of the full mask, whose row the nonzero
// total always gives — and a table core.WeightRows does not rebuild exactly,
// row for row, is refused with ErrBadWeight. It appends the blocks' IDs to
// ids.
func writeQueries(w *writer, weights []core.WeightEntry, ids []core.QueryID) ([]core.QueryID, error) {
	rebuilt := make([]core.WeightEntry, 0, len(weights))
	var sums [pattern.MaxLocals]int64
	for i := 0; i < len(weights); {
		q, j := weights[i].Query, i+1
		for j < len(weights) && weights[j].Query == q {
			j++
		}
		rows := weights[i:j]
		e := min(bits.Len32(uint32(rows[len(rows)-1].Mask)), pattern.MaxLocals)
		clear(sums[:e])
		for _, row := range rows {
			if local := bits.TrailingZeros32(uint32(row.Mask)); local < e && row.Mask == 1<<local {
				sums[local] = row.Numerator
			}
		}
		rebuilt = core.WeightRows(rebuilt[:0], q, sums[:e])
		if !sumsCarryWeights(sums[:e]) || !slices.Equal(rebuilt, rows) {
			return nil, fmt.Errorf("%w: query %d's %d rows are not the table of local sums %v", ErrBadWeight, q, len(rows), slices.Clone(sums[:e]))
		}
		w.uvarint(uint64(q))
		w.uvarint(uint64(e))
		for _, s := range sums[:e] {
			w.uvarint(uint64(s))
		}
		ids = append(ids, q)
		i = j
	}
	return ids, nil
}

// sumsCarryWeights reports whether one query's local sums can carry weights:
// each non-negative, and the total positive and within an int64.
func sumsCarryWeights(sums []int64) bool {
	var total int64
	for _, s := range sums {
		if s < 0 || s > math.MaxInt64-total {
			return false
		}
		total += s
	}
	return total > 0
}

// writeFilter renders a WBF into w as core.Filter holds it, less its weight
// table (writeQueries' blocks): params with the frame's person bound, length,
// the set-bit, dictionary-list and pointer counts, and then one bit stream.
// The stream holds the dictionary — per distinct pointer list its
// length less one, Rice-coded, then its IDs as Rice-coded gaps — and then,
// per set bit in ascending order, its Rice-coded gap and its dictionary code
// at codeWidth bits. No Rice parameter is sent: each follows from the counts.
func writeFilter(w *writer, f *core.Filter, from, to core.PersonID) {
	p := f.Params()
	writeParams(w, p, from, to)
	w.uvarint(uint64(f.Length()))
	positions := f.Positions()
	codes, offs, ids := f.Lists()
	lists := len(offs) - 1
	w.uvarint(uint64(len(positions)))
	w.uvarint(uint64(lists))
	w.uvarint(uint64(len(ids)))

	bw := bitWriter{w: w}
	lenRice, idRice := dictRice(uint64(len(f.Weights())), uint64(lists), uint64(len(ids)))
	for d := 0; d < lists; d++ {
		list := ids[offs[d]:offs[d+1]]
		bw.rice(uint64(len(list)-1), lenRice)
		next := uint64(0) // one past the previous ID: they ascend strictly
		for _, id := range list {
			bw.rice(uint64(id)-next, idRice)
			next = uint64(id) + 1
		}
	}
	rice, width := core.RiceParam(p.Bits, uint64(len(positions))), codeWidth(lists)
	next := uint64(0) // one past the previous set bit
	for i, pos := range positions {
		bw.rice(uint64(pos)-next, rice)
		bw.bits(uint64(codes[i]), width)
		next = uint64(pos) + 1
	}
	bw.flush()
}

// dictRice returns the Rice parameters of the dictionary of lists pointer
// lists holding pointers pointers into a table of rows rows: for the lengths
// less one, of mean (pointers − lists)/lists, and for the ID gaps. Each list
// is a subset of the rows, so its IDs lie among rows slots the way set bits
// lie among a filter's bits, and the gaps are coded like theirs, as pointers
// set among lists × rows slots (saturating; the decoder checks the counts
// before it trusts a parameter).
func dictRice(rows, lists, pointers uint64) (lenRice, idRice uint) {
	hi, slots := bits.Mul64(lists, rows)
	if hi != 0 {
		slots = math.MaxUint64
	}
	return core.RiceParam(pointers-min(lists, pointers), lists), core.RiceParam(slots, pointers)
}

// codeWidth returns the bits one packed dictionary code takes: enough to
// index the dictionary, none when every set bit carries the same list.
func codeWidth(lists int) uint {
	return uint(bits.Len32(uint32(max(lists, 1) - 1)))
}

// bitWriter packs bit fields into w, low bits first, 32 at a time.
type bitWriter struct {
	w   *writer
	acc uint64 // pending bits, fewer than 32 between calls
	n   uint
}

// bits appends v, which must fit width bits. A field wider than 32 bits (a
// reply's 64-bit person gaps can take up to 63 low bits) goes as two, so a
// field always fits beside the pending bits.
func (b *bitWriter) bits(v uint64, width uint) {
	if width > 32 {
		b.field(v&(1<<32-1), 32)
		v, width = v>>32, width-32
	}
	b.field(v, width)
}

// field appends v, which must fit width bits, at most 32.
func (b *bitWriter) field(v uint64, width uint) {
	b.acc |= v << b.n
	if b.n += width; b.n >= 32 {
		b.w.buf = binary.LittleEndian.AppendUint32(b.w.buf, uint32(b.acc))
		b.acc >>= 32
		b.n -= 32
	}
}

// rice appends v's Rice code with parameter r: v >> r one bits, a zero bit,
// then v's low r bits.
func (b *bitWriter) rice(v uint64, r uint) {
	q := v >> r
	for ; q >= 32; q -= 32 {
		b.field(1<<32-1, 32)
	}
	b.field(1<<q-1, uint(q)+1) // the last ones and the zero
	b.bits(v&(1<<r-1), r)
}

// flush writes the pending bits, the last byte's pad bits zero.
func (b *bitWriter) flush() {
	for ; b.n > 0; b.n -= min(b.n, 8) {
		b.w.u8(uint8(b.acc))
		b.acc >>= 8
	}
}

// bitReader reads bitWriter's fields from r. Its unread bits are the low n
// of acc, which is zero above them; fill takes whole bytes, a word at a time.
type bitReader struct {
	r   *reader
	acc uint64
	n   uint
}

// fill tops acc up with the whole bytes that fit — with a word load while
// eight bytes remain, else byte by byte — and reports whether want bits are
// now unread; if not, the payload ended early and r fails.
func (b *bitReader) fill(want uint) bool {
	rest := b.r.buf[b.r.off:]
	if len(rest) >= 8 {
		take := (64 - b.n) / 8
		word := binary.LittleEndian.Uint64(rest)
		if take < 8 {
			word &= 1<<(8*take) - 1
		}
		b.acc |= word << b.n
		b.n += 8 * take
		b.r.off += int(take)
	}
	for ; b.n <= 56 && b.r.off < len(b.r.buf); b.r.off++ {
		b.acc |= uint64(b.r.buf[b.r.off]) << b.n
		b.n += 8
	}
	if b.n < want {
		b.r.fail(errShortBuffer)
		return false
	}
	return true
}

// finish ends the stream: the whole bytes fill took past it go back to r,
// where r.done finds them trailing, and it reports whether the last byte's
// pad bits are zero.
func (b *bitReader) finish() bool {
	b.r.off -= int(b.n / 8)
	b.n %= 8
	return b.acc&(1<<b.n-1) == 0
}

// bits reads a field of width bits, split as bitWriter splits it.
func (b *bitReader) bits(width uint) uint64 {
	if width > 32 {
		low := b.field(32)
		return low | b.field(width-32)<<32
	}
	return b.field(width)
}

// field reads a field of width bits, at most 32.
func (b *bitReader) field(width uint) uint64 {
	if b.n < width && !b.fill(width) {
		return 0
	}
	v := b.acc & (1<<width - 1)
	b.acc >>= width
	b.n -= width
	return v
}

// rice reads a Rice code with parameter r. It stops early with ok false at the
// payload's end, or once the quotient passes limit: a hostile unary run is
// never read past the largest value the caller can accept.
func (b *bitReader) rice(r uint, limit uint64) (v uint64, ok bool) {
	q := uint64(0)
	for {
		if b.n == 0 && !b.fill(1) {
			return 0, false
		}
		ones := uint(bits.TrailingZeros64(^b.acc)) // at most n: acc is zero past its n bits
		if q += uint64(ones); q > limit {
			return 0, false
		}
		if ones < b.n {
			b.acc >>= ones + 1
			b.n -= ones + 1
			return q<<r | b.bits(r), true
		}
		b.acc, b.n = 0, 0
	}
}

// readBlock reads one query block into sums and returns the query's ID and
// local count. Sums that cannot carry weights (sumsCarryWeights) are refused
// with ErrBadWeight.
func readBlock(r *reader, sums *[pattern.MaxLocals]int64) (core.QueryID, int, error) {
	id, e := core.QueryID(r.u32()), r.uvarint()
	if r.err == nil && (e == 0 || e > pattern.MaxLocals) {
		return 0, 0, fmt.Errorf("wire: query %d declares %d locals, want 1..%d", id, e, pattern.MaxLocals)
	}
	for j := range sums[:e] {
		v := r.uvarint()
		if v > math.MaxInt64 {
			r.fail(fmt.Errorf("%w: query %d's local %d sums to %d", ErrBadWeight, id, j, v))
		}
		sums[j] = int64(v)
	}
	if r.err != nil {
		return 0, 0, r.err
	}
	if !sumsCarryWeights(sums[:e]) {
		return 0, 0, fmt.Errorf("%w: query %d's local sums %v total 0 or past 2⁶³−1", ErrBadWeight, id, slices.Clone(sums[:e]))
	}
	return id, int(e), nil
}

// readFilter reconstructs a WBF from r into out.Filter, refilling its arrays
// (grown when they are short) for core's SetParts to validate and keep, and setting the frame's person bound on out as it passes the
// params. Its weight table is rebuilt from the blocks of out.Queries that
// start at blocks, which readBlock accepted and which derive rows rows.
// Every array is bounded by the bytes present before it is allocated: the
// table by the pointers, since every row is some list's pointer, and the
// lists, pointers and set bits by the least each costs in the bit stream — a
// Rice code's terminator and low bits, plus a set bit's code. That is at most
// 8 lists, pointers or rows per remaining byte.
func readFilter(r *reader, blocks reader, out *BatchQuery, rows uint64) error {
	var p core.Params
	p, out.From, out.To = readParams(r)
	queries := len(out.Queries)
	length := int(r.uvarint())
	set, lists, pointers := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return r.err
	}
	// Bits bounds the positions' Rice parameter at 31.
	if p.Bits == 0 || p.Bits > core.MaxBits {
		return fmt.Errorf("wire: filter declares %d bits, want 1..%d", p.Bits, uint64(core.MaxBits))
	}
	left := 8 * uint64(len(r.buf)-r.off) // bits
	if set > p.Bits || pointers > left {
		return fmt.Errorf("wire: %d set bits in %d bits and %d pointers in %d remaining bytes: %w", set, p.Bits, pointers, left/8, ErrTruncated)
	}
	if lists > pointers {
		return fmt.Errorf("wire: %d pointer lists of %d pointers: a list is empty", lists, pointers)
	}
	if rows > pointers {
		return fmt.Errorf("wire: %d weight rows implausible for %d pointers: every row is pointed to", rows, pointers)
	}
	lenRice, idRice := dictRice(rows, lists, pointers)
	rice, width := core.RiceParam(p.Bits, set), codeWidth(int(lists))
	if least := lists*uint64(lenRice+1) + pointers*uint64(idRice+1) + set*uint64(rice+1+width); least > left {
		return fmt.Errorf("wire: %d lists, %d pointers and %d set bits take %d bits, %d remain: %w", lists, pointers, set, least, left, ErrTruncated)
	}

	f := out.Filter
	weights := resize(f.Weights(), int(rows))[:0]
	var sums [pattern.MaxLocals]int64
	for range queries {
		id, e, _ := readBlock(&blocks, &sums) // accepted once already
		weights = core.WeightRows(weights, id, sums[:e])
	}

	codes, offs, ids := f.Lists()
	offs, ids = resize(offs, int(lists+1)), resize(ids, int(pointers))
	offs[0] = 0
	br := bitReader{r: r}
	k := uint64(0) // pointers read
	for d := uint64(1); d <= lists; d++ {
		room := pointers - k - (lists - d) // every later list holds one at least
		n, ok := br.rice(lenRice, (room-1)>>lenRice)
		if r.err != nil {
			return r.err
		}
		if !ok || n >= room {
			return fmt.Errorf("wire: pointer list %d is longer than the %d pointers left for it", d-1, room)
		}
		for next, end := uint64(0), k+n+1; k < end; k++ { // next: one past the previous ID
			gap, ok := br.rice(idRice, (rows-next)>>idRice)
			if r.err != nil {
				return r.err
			}
			if !ok || gap >= rows-next {
				return fmt.Errorf("wire: pointer list %d points past the %d weight rows", d-1, rows)
			}
			ids[k], next = core.WeightID(next+gap), next+gap+1
		}
		offs[d] = uint32(k)
	}
	if k != pointers {
		return fmt.Errorf("wire: the pointer lists hold %d of the %d pointers declared", k, pointers)
	}

	positions, codes := resize(f.Positions(), int(set)), resize(codes, int(set))
	next := uint64(0) // one past the previous set bit
	for i := range positions {
		gap, ok := br.rice(rice, p.Bits>>rice)
		if r.err != nil {
			return r.err
		}
		if !ok || next+gap >= p.Bits {
			return fmt.Errorf("wire: set bit %d lies beyond the filter's %d bits", i, p.Bits)
		}
		positions[i], next = uint32(next+gap), next+gap+1
		codes[i] = uint32(br.bits(width))
	}
	if r.err != nil {
		return r.err
	}
	if !br.finish() {
		return fmt.Errorf("wire: nonzero pad bits after %d set bits", set)
	}
	return f.SetParts(p, length, positions, weights, offs, ids, codes)
}

// resize returns s at length n, in s's own array when it has the capacity
// and in an exactly sized one otherwise. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// BatchQuery is one search round for one station: the IDs of every query in
// the round and the combined WBF that encodes all of them, so a round costs
// one exchange per station however many queries it carries.
type BatchQuery struct {
	// Queries are the batch's query IDs: unique, and exactly the queries
	// Filter's weight table holds. Decoded, they are in the table's order.
	Queries []core.QueryID
	// Filter is the combined WBF covering all queries of the batch.
	Filter *core.Filter
	// From and To bound the persons the station answers for to [From, To);
	// zero leaves that end open. A capped search's prefix round sets To, its
	// tail round From.
	From, To core.PersonID
}

// EncodeBatchQuery renders the batch round: the query blocks (writeQueries),
// then the filter with the bound. It fails on a bound with To ≤ From
// (ErrBadBound), on an empty batch, on more than MaxBatchQueries
// queries (ErrBatchTooLarge), on declared IDs that repeat one or differ from
// the weight table's (ErrBatchMismatch), and on a weight table the blocks do
// not rebuild or a row no list points to (ErrBadWeight): a frame it writes,
// DecodeBatchQuery accepts.
func EncodeBatchQuery(b BatchQuery) (Message, error) {
	if err := checkBound(b.From, b.To); err != nil {
		return Message{}, err
	}
	if len(b.Queries) == 0 {
		return Message{}, fmt.Errorf("%w: zero queries", ErrBatchMismatch)
	}
	if len(b.Queries) > MaxBatchQueries {
		return Message{}, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(b.Queries), MaxBatchQueries)
	}
	declared := slices.Clone(b.Queries)
	slices.Sort(declared)
	for i := 1; i < len(declared); i++ {
		if declared[i] == declared[i-1] {
			return Message{}, fmt.Errorf("%w: duplicate query id %d", ErrBatchMismatch, declared[i])
		}
	}
	var w writer
	w.uvarint(uint64(len(b.Queries)))
	held, err := writeQueries(&w, b.Filter.Weights(), make([]core.QueryID, 0, len(b.Queries)))
	if err != nil {
		return Message{}, err
	}
	slices.Sort(held)
	if !slices.Equal(declared, held) {
		return Message{}, fmt.Errorf("%w: the batch declares queries %v, the filter's weight table holds %v", ErrBatchMismatch, declared, held)
	}
	if _, _, ids := b.Filter.Lists(); len(ids) < len(b.Filter.Weights()) {
		return Message{}, fmt.Errorf("%w: %d weight rows but %d pointers: a row no list points to", ErrBadWeight, len(b.Filter.Weights()), len(ids))
	}
	writeFilter(&w, b.Filter, b.From, b.To)
	return Message{Kind: KindBatchQuery, Payload: w.buf}, nil
}

// repeatedID returns an ID ids holds twice, if any. Up to 64 IDs sort on
// the stack.
func repeatedID(ids []core.QueryID) (core.QueryID, bool) {
	if len(ids) < 2 {
		return 0, false
	}
	var stack [64]core.QueryID
	sorted := append(stack[:0], ids...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i], true
		}
	}
	return 0, false
}

// DecodeBatchQuery parses and validates a batch round: the query count is
// bounded by MaxBatchQueries, every query block by readBlock, the IDs must
// be unique (ErrBatchMismatch), the bound must be one the encoder writes
// (readParams), and the filter reconstructs through readFilter's and
// core's SetParts validation. The blocks are read twice:
// once for the IDs and the row count their sums derive — 2^e − 2^z for e
// locals of which z sum to zero — and, once readFilter has held that count
// to the frame, again to derive the rows. Corrupt payloads fail with typed
// errors — never a panic. It is DecodeBatchQueryInto a fresh BatchQuery.
func DecodeBatchQuery(m Message) (BatchQuery, error) {
	var out BatchQuery
	if err := DecodeBatchQueryInto(&out, m); err != nil {
		return BatchQuery{}, err
	}
	return out, nil
}

// DecodeBatchQueryInto is DecodeBatchQuery into dst: its query IDs and its
// filter's arrays are refilled in place, and grown only when the frame
// needs more than they hold, so a station decoding one frame per round into
// one BatchQuery allocates nothing once they have grown. Whatever still
// reads dst's previous filter must be done with it. After an error dst holds
// no usable batch, but decoding into it again gives what a fresh decode
// gives.
func DecodeBatchQueryInto(dst *BatchQuery, m Message) error {
	if m.Kind != KindBatchQuery {
		return fmt.Errorf("wire: decoding %v as batch-query", m.Kind)
	}
	r := &reader{buf: m.Payload}
	n := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if n > MaxBatchQueries {
		return fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, n, MaxBatchQueries)
	}
	if n == 0 {
		return fmt.Errorf("%w: zero queries", ErrBatchMismatch)
	}
	blocks := *r
	dst.Queries = resize(dst.Queries, int(n))
	rows := uint64(0)
	var sums [pattern.MaxLocals]int64
	for i := range dst.Queries {
		id, e, err := readBlock(r, &sums)
		if err != nil {
			return err
		}
		zeros := 0
		for _, s := range sums[:e] {
			if s == 0 {
				zeros++
			}
		}
		dst.Queries[i], rows = id, rows+1<<e-1<<zeros
	}
	if q, ok := repeatedID(dst.Queries); ok {
		return fmt.Errorf("%w: duplicate query id %d", ErrBatchMismatch, q)
	}
	if dst.Filter == nil {
		dst.Filter = new(core.Filter)
	}
	if err := readFilter(r, blocks, dst, rows); err != nil {
		return err
	}
	return r.done()
}

// BatchReply answers a batch round: one station's (person, weight-pointer)
// reports covering every query of the batch, plus an echo of the batch's
// query count so the center can detect a desynchronized peer.
type BatchReply struct {
	// Station names the answering station. The coordinator knows it from
	// the exchange and reads nothing here; the field stays while the
	// benchmark's replay of the search pipeline sets it.
	Station uint32
	// Queries echoes the number of queries the station matched against.
	Queries uint32
	// Reports each carry a pointer at least (a station reports matches). They
	// travel grouped by list, so their order is not kept: decoded, a list's
	// reports come together, person ascending, sharing its read-only slice.
	Reports []core.Report
	// arena backs the decoded reports' pointer lists, kept for the next
	// DecodeBatchReplyInto.
	arena []core.WeightID
}

// EncodeBatchReply renders the batch answer as one entry per distinct
// pointer list, in first-use order: the list, how many reports carry it (not
// sent for the last) and their largest person. One bit stream follows the
// last entry: per entry, its run's other persons ascending, as gaps
// Rice-coded with the parameter personRice derives from the entry. It is
// ReplyEncoder.Encode on a fresh encoder, so the payload is the caller's.
func EncodeBatchReply(b BatchReply) Message {
	var e ReplyEncoder
	return e.Encode(b)
}

// ReplyEncoder renders batch replies into buffers it keeps for the next
// one: the report grouping's index and the payload. A station keeps one
// across its rounds, so a warm encoder allocates nothing.
type ReplyEncoder struct {
	index   []uint64
	payload []byte
}

// Encode renders b as EncodeBatchReply does. The payload is e's own: it is
// valid until the next Encode, so the message must be sent (a link keeps no
// payload once Send returns) or copied before then.
func (e *ReplyEncoder) Encode(b BatchReply) Message {
	firsts, persons, bounds := groupReports(b.Reports, &e.index)
	w := writer{buf: e.payload[:0]}
	w.uvarint(uint64(b.Station))
	w.uvarint(uint64(b.Queries))
	w.uvarint(uint64(len(persons)))
	for g, first := range firsts {
		list, run, last := b.Reports[first].WeightIDs, persons[bounds[g]:bounds[g+1]], g == len(firsts)-1
		w.uvarint(uint64(len(list))<<1 | uint64(boolByte(last)))
		for _, id := range list {
			w.uvarint(uint64(id))
		}
		if !last {
			w.uvarint(uint64(len(run)))
		}
		w.uvarint(run[len(run)-1])
	}
	bw := bitWriter{w: &w}
	for g := range firsts {
		run := persons[bounds[g]:bounds[g+1]]
		rice := personRice(run[len(run)-1], len(run))
		prev := uint64(0)
		for _, p := range run[:len(run)-1] {
			bw.rice(p-prev, rice)
			prev = p
		}
	}
	bw.flush()
	e.payload = w.buf
	return Message{Kind: KindBatchReply, Payload: w.buf}
}

// Bytes returns the capacity e holds between replies, in bytes.
func (e *ReplyEncoder) Bytes() int { return 8*cap(e.index) + cap(e.payload) }

// groupReports groups the reports by pointer list, in first-use order, in
// buf: list g is report firsts[g]'s, its persons persons[bounds[g]:
// bounds[g+1]], ascending. A list matches the report before (a walk repeats
// one list over long stretches) or is found by its hash in an open-addressed
// table; a counting sort keeps report order, so only unordered runs sort.
func groupReports(reports []core.Report, buf *[]uint64) (firsts, persons, bounds []uint64) {
	n, need := len(reports), 4*len(reports)+1+2<<bits.Len(uint(len(reports)))
	if cap(*buf) < need {
		*buf = make([]uint64, need)
	}
	scratch := (*buf)[:need] // exactly: the table's length is a power of two
	clear(scratch[3*n:])
	group, firsts, persons := scratch[:n], scratch[n:n:2*n], scratch[2*n:3*n]
	bounds, slots := scratch[3*n:4*n+1], scratch[4*n+1:] // slot: 1 + group, 0 = free
	for i, rep := range reports {
		ids := rep.WeightIDs
		if i > 0 && slices.Equal(ids, reports[i-1].WeightIDs) {
			group[i] = group[i-1]
			continue
		}
		j := listHash(ids) & uint64(len(slots)-1)
		for slots[j] != 0 && !slices.Equal(ids, reports[firsts[slots[j]-1]].WeightIDs) {
			j = (j + 1) & uint64(len(slots)-1)
		}
		if slots[j] == 0 {
			firsts = append(firsts, uint64(i))
			slots[j] = uint64(len(firsts))
		}
		group[i] = slots[j] - 1
	}
	bounds = bounds[:len(firsts)+1]
	for _, g := range group {
		bounds[g]++
	}
	for g := range firsts {
		bounds[g+1] += bounds[g] // where group g ends
	}
	for i := n - 1; i >= 0; i-- {
		bounds[group[i]]--
		persons[bounds[group[i]]] = uint64(reports[i].Person) // where it starts, once all are placed
	}
	for g := range firsts {
		if run := persons[bounds[g]:bounds[g+1]]; !slices.IsSorted(run) {
			slices.Sort(run)
		}
	}
	return firsts, persons, bounds
}

// listHash is a pointer list's FNV-1a hash, one step per pointer.
func listHash(ids []core.WeightID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}

// uvarintLen returns the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// personRice returns the Rice parameter of a run's person gaps: run persons
// up to hi, so gaps of mean about hi/run. Person IDs are 64-bit, so it can
// reach 63, past the 32 bits of a packed field (bitWriter splits it).
func personRice(hi uint64, run int) uint {
	return core.RiceParam(hi, uint64(run))
}

// readEntry reads one reply entry, of the remaining reports: its list's
// length and pointers (appended to arena, unless arena is nil), its run
// length and its run's largest person.
func readEntry(r *reader, remaining int, arena *[]core.WeightID) (listLen uint64, run int, hi uint64, err error) {
	head := r.uvarint()
	listLen, run = head>>1, remaining
	if left := uint64(len(r.buf) - r.off); r.err == nil && (listLen == 0 || listLen > left) { // a pointer takes a byte at least
		return 0, 0, 0, fmt.Errorf("wire: reply list of %d pointers where %d fit", listLen, left)
	}
	for i := uint64(0); i < listLen; i++ {
		if id := core.WeightID(r.u32()); arena != nil {
			*arena = append(*arena, id)
		}
	}
	if head&1 == 0 {
		v := r.uvarint()
		if r.err == nil && (v == 0 || v >= uint64(run)) {
			return 0, 0, 0, fmt.Errorf("wire: reply run of %d reports where %d remain and the last flag is unset", v, run)
		}
		run = int(v)
	}
	hi = r.uvarint()
	return listLen, run, hi, r.err
}

// DecodeBatchReply parses the batch answer into two allocations bounded by
// the bytes present, and a third past 8 pointer lists: the pointer arena
// holds exactly the entries' pointers, and the reports are at most 8 per
// byte left, since no report costs less than a bit. The entries are read
// twice: first to check them and count their pointers, then beside the
// stream to fill the reports. They must account for exactly reportCount
// reports: every list holds a pointer, a sent run length lies in [1,
// reports remaining), and the last flag marks the entry that exhausts the
// count. The stream's persons must strictly ascend to their run's largest
// and no list may come twice — a station reports a person once, and a
// repeat would count its weights twice — and the stream's pad bits must be
// zero. It is DecodeBatchReplyInto a fresh BatchReply.
func DecodeBatchReply(m Message) (BatchReply, error) {
	var out BatchReply
	if err := DecodeBatchReplyInto(&out, m); err != nil {
		return BatchReply{}, err
	}
	return out, nil
}

// DecodeBatchReplyInto is DecodeBatchReply into dst: its reports and their
// pointer arena are refilled in place, and grown only when the frame needs
// more than they hold, so a coordinator decoding every reply of a search
// into one BatchReply allocates for the largest. Whatever still reads dst's
// previous reports must be done with them. After an error dst holds no
// usable reply.
func DecodeBatchReplyInto(dst *BatchReply, m Message) error {
	if m.Kind != KindBatchReply {
		return fmt.Errorf("wire: decoding %v as batch-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	dst.Station, dst.Queries = r.u32(), r.u32()
	reports := r.uvarint()
	if left := len(r.buf) - r.off; r.err == nil && reports > 8*uint64(left) {
		return fmt.Errorf("wire: %d reports implausible for %d remaining bytes", reports, left)
	}
	n := int(reports)
	entries, pointers, lists := *r, uint64(0), 0
	if r.err != nil {
		return r.err
	}
	for done := 0; done < n; lists++ {
		listLen, run, _, err := readEntry(r, n-done, nil)
		if err != nil {
			return err
		}
		pointers, done = pointers+listLen, done+run
	}
	dst.Reports = resize(dst.Reports, n)
	dst.arena = resize(dst.arena, int(pointers))[:0]
	arena := dst.arena
	// seen is an open-addressed table of the lists read so far, each slot 0
	// or its list's arena offset + 1 and length; a few lists fit on the
	// stack.
	var small [16]uint64
	seen := small[:]
	if need := 2 * lists; need > len(seen) {
		seen = make([]uint64, 1<<bits.Len(uint(need)))
	}
	br := bitReader{r: r}
	for done := 0; done < n; {
		lo := len(arena)
		_, run, hi, _ := readEntry(&entries, n-done, &arena) // checked above
		list := arena[lo:len(arena):len(arena)]
		j := listHash(list) & uint64(len(seen)-1)
		for ; seen[j] != 0; j = (j + 1) & uint64(len(seen)-1) {
			if at := seen[j]&math.MaxUint32 - 1; slices.Equal(arena[at:at+seen[j]>>32], list) {
				return fmt.Errorf("wire: reply sends pointer list %v twice", list)
			}
		}
		seen[j] = uint64(lo+1) | uint64(len(list))<<32
		rice, person := personRice(hi, run), uint64(0)
		for k := done; k < done+run-1; k++ {
			gap, ok := br.rice(rice, (hi-person)>>rice)
			if r.err != nil {
				return r.err
			}
			if !ok || gap >= hi-person {
				return fmt.Errorf("wire: reply person %d plus gap %d reaches its run's largest, %d", person, gap, hi)
			}
			if gap == 0 && k > done {
				return fmt.Errorf("wire: reply repeats person %d", person)
			}
			person += gap
			dst.Reports[k] = core.Report{Person: core.PersonID(person), WeightIDs: list}
		}
		dst.Reports[done+run-1] = core.Report{Person: core.PersonID(hi), WeightIDs: list}
		done += run
	}
	if !br.finish() {
		return fmt.Errorf("wire: nonzero pad bits after %d reports", n)
	}
	return r.done()
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
	writeParams(&w, q.Params, 0, 0)
	w.uvarint(uint64(q.Length))
	writeWords(&w, q.Filter.Words())
	return Message{Kind: KindBFQuery, Payload: w.buf}
}

// DecodeBFQuery reconstructs the baseline query. The baseline takes no
// person bound: a params block carrying one is ErrBadBound.
func DecodeBFQuery(m Message) (BFQuery, error) {
	if m.Kind != KindBFQuery {
		return BFQuery{}, fmt.Errorf("wire: decoding %v as bf-query", m.Kind)
	}
	r := &reader{buf: m.Payload}
	p, from, to := readParams(r)
	if r.err == nil && (from != 0 || to != 0) {
		return BFQuery{}, fmt.Errorf("%w: a bf-query takes none, this one is [%d, %d)", ErrBadBound, from, to)
	}
	length := int(r.uvarint())
	words := readWords(r)
	if err := r.done(); err != nil {
		return BFQuery{}, err
	}
	f, err := bloom.FromParts(words, p.Bits, p.Hashes, p.Seed, 0)
	if err != nil {
		return BFQuery{}, err
	}
	return BFQuery{Filter: f, Params: p, Length: length}, nil
}

// ---- BF matches ----

// BFMatches is the baseline's report: bare person IDs, no weights.
type BFMatches struct {
	Persons []core.PersonID
}

// EncodeBFMatches renders the baseline match list.
func EncodeBFMatches(b BFMatches) Message {
	var w writer
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
	out := BFMatches{Persons: make([]core.PersonID, r.count(1))}
	for i := range out.Persons {
		out.Persons[i] = core.PersonID(r.uvarint())
	}
	if err := r.done(); err != nil {
		return BFMatches{}, err
	}
	return out, nil
}

// ---- raw patterns: person lists and row sets ----
//
// Every exchange of raw local patterns carries one of two bodies, and the
// station WAL (internal/store/wal) logs and snapshots the same bytes, so
// persistence and the wire share one binary vocabulary. The codecs read and
// write bodies only: setting and checking a frame's kind is the caller's.
//
// A person list is the body of KindDump, KindEvict and the WAL's evict
// records. KindDump asks a station for the raw local patterns of specific
// persons or, with an empty list, of its entire resident store; every reader
// of raw patterns sends it: the naive baseline (the paper's Approach 1, whole
// store), the verification phase ("... sent to the data center for
// aggregation and verification", Section I; the ranked candidates), the pull
// half of re-replication (the placed persons). KindEvict removes residents.
//
// A row set — (person, local pattern) rows — is the body of KindIngest (the
// center forwarding freshly observed call data to a station, over that
// station's own link), of KindDumpReply (the requested rows a station holds,
// person-ID ascending; persons it does not hold are simply absent), of the
// WAL's ingest records and of its snapshot chunks. The bytes are the same
// for either cell type: a station encodes and decodes int32 rows, the
// coordinator Pattern rows.

// EncodePersons renders a person list as its count and then the IDs
// ascending, each as its delta from the one before. The caller's slice is
// not reordered.
func EncodePersons(persons []core.PersonID) []byte {
	sorted := append([]core.PersonID(nil), persons...)
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

// DecodePersons parses EncodePersons's bytes; an empty list decodes nil.
func DecodePersons(payload []byte) ([]core.PersonID, error) {
	r := &reader{buf: payload}
	n := r.count(1)
	var persons []core.PersonID
	if n > 0 {
		persons = make([]core.PersonID, n)
	}
	prev := uint64(0)
	for i := range persons {
		prev += r.uvarint()
		persons[i] = core.PersonID(prev)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return persons, nil
}

// EncodeRows appends the row set persons[i], locals[i] for each i of index,
// in that order — or of every row when index is nil — to dst, growing it at
// most once. Each index must lie in range. A coordinator pushing one shared,
// person-ascending row set to many stations passes each station's ascending
// index list and gets that station's body with no per-station copy of the
// rows; a caller encoding batch after batch (a WAL fold's chunk records) can
// reuse one buffer. A grown buffer is exactly the size needed or twice the
// old capacity, whichever is larger: a body encoded into nil holds no spare
// bytes, and a reused buffer stops growing after a chunk or two.
//
// A non-zero rowBytes is the sum of RowSize over the rows named: the body is
// sized from it, so each row's cells are read once, to be written. A
// coordinator sizes every row in the pass that checks it and sums each
// station's share; a wrong rowBytes costs a regrowth, never a wrong byte.
// At 0 the rows are sized here (no row is 0 bytes). A non-nil each is handed
// the index (into persons) of every row just written, in body order, so a
// caller that digests the rows reads each one while it is still hot from the
// write.
func EncodeRows[R pattern.Row[C], C pattern.Cell](dst []byte, persons []core.PersonID, locals []R, index []int32, rowBytes int, each func(i int)) ([]byte, error) {
	if len(persons) != len(locals) {
		return nil, fmt.Errorf("wire: %d persons but %d locals", len(persons), len(locals))
	}
	count := len(persons)
	if index != nil {
		count = len(index)
	}
	size := uvarintLen(uint64(count)) + rowBytes
	if rowBytes == 0 {
		size = rowsSize(persons, locals, index)
	}
	if n := len(dst) + size; cap(dst) < n {
		dst = append(make([]byte, 0, max(n, 2*cap(dst))), dst...)
	}
	w := writer{buf: dst}
	writeRows(&w, persons, locals, index, each)
	return w.buf, nil
}

// DecodeRows parses a row set into rows R (the caller names R:
// DecodeRows[[]int32] for a station's cells, which rejects a value an int32
// cannot hold). The rows share one exactly sized arena, and each is capped.
func DecodeRows[R pattern.Row[C], C pattern.Cell](payload []byte) ([]core.PersonID, []R, error) {
	r := &reader{buf: payload}
	persons, locals := readRows[R](r)
	if err := r.done(); err != nil {
		return nil, nil, err
	}
	return persons, locals, nil
}

// rowsSize returns the exact number of bytes writeRows will append for the
// same arguments: the row count's varint and each row's RowSize.
func rowsSize[R pattern.Row[C], C pattern.Cell](persons []core.PersonID, locals []R, rows []int32) int {
	count := len(persons)
	if rows != nil {
		count = len(rows)
	}
	n := uvarintLen(uint64(count))
	for k := 0; k < count; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		n += RowSize(persons[i], locals[i])
	}
	return n
}

// RowSize returns the bytes writeRows spends on one row: the person, the
// pattern length and the zigzagged values. A frame's rows follow the varint
// of their count, so a caller that sized each row when it read it sizes any
// frame of those rows without reading a cell again (EncodeRows's rowBytes).
func RowSize[R pattern.Row[C], C pattern.Cell](person core.PersonID, row R) int {
	n := uvarintLen(uint64(person)) + uvarintLen(uint64(len(row)))
	for _, v := range row {
		n += uvarintLen(zigzag(int64(v)))
	}
	return n
}

// writeRows appends the row count and then, per row, the person, the pattern
// length and the zigzagged values. The rows are persons[i], locals[i] for
// each i of rows in its order, or every row when rows is nil: a grouped
// ingest encodes each station's frame straight from one shared row set
// through the station's index list. Callers size w from rowsSize, or from
// the rows' RowSizes summed when they were read: a bulk load is megabytes
// of varints, and growing into it by doubling allocates several times the
// payload. The values, almost every byte of a bulk load, are written by
// hand up to three bytes each (binary.AppendUvarint's layout, see
// rows_test.go) into a local slice, so the loop keeps the buffer in
// registers instead of storing it back through w per varint. A non-nil each
// hears the index of every row once its values are written.
func writeRows[R pattern.Row[C], C pattern.Cell](w *writer, persons []core.PersonID, locals []R, rows []int32, each func(i int)) {
	count := len(persons)
	if rows != nil {
		count = len(rows)
	}
	b := binary.AppendUvarint(w.buf, uint64(count))
	for k := 0; k < count; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		b = binary.AppendUvarint(b, uint64(persons[i]))
		b = binary.AppendUvarint(b, uint64(len(locals[i])))
		for _, v := range locals[i] {
			switch z := zigzag(int64(v)); {
			case z < 1<<7:
				b = append(b, byte(z))
			case z < 1<<14:
				b = append(b, byte(z)|0x80, byte(z>>7))
			case z < 1<<21:
				b = append(b, byte(z)|0x80, byte(z>>7)|0x80, byte(z>>14))
			default:
				b = binary.AppendUvarint(b, z)
			}
		}
		if each != nil {
			each(i)
		}
	}
	w.buf = b
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
//
// A value of one to three bytes with three bytes left in the payload is
// decoded inline; anything longer, and the last bytes, go through
// reader.uvarint. The inline path accepts exactly the complete varints
// binary.Uvarint accepts at those widths, with the same value, so the rows
// and every error are those of reading each value through reader.uvarint
// (rows_test.go holds the two to each other at every cut).
//
// Rows of int32 cells — a station's — take only values an int32 holds: a
// longer value fails the read, so a station never stores a value other than
// the one sent. Only the long path can carry one: three bytes hold 21 bits.
func readRows[R pattern.Row[C], C pattern.Cell](r *reader) ([]core.PersonID, []R) {
	n := r.count(2)
	values := -2*n + endBytes(r.buf[r.off:])
	if values < 0 {
		values = 0 // fewer varints than the rows need: the reads below fail
	}
	persons := make([]core.PersonID, 0, n)
	locals := make([]R, 0, n)
	arena := make([]C, values)
	buf := r.buf
	for i := 0; i < n && r.err == nil; i++ {
		persons = append(persons, core.PersonID(r.uvarint()))
		l := r.count(1)
		if l > len(arena) {
			r.fail(fmt.Errorf("wire: row of %d values where %d remain in the payload", l, len(arena)))
			break
		}
		row := arena[:l:l]
		arena = arena[l:]
		off := r.off
		for j := range row {
			if off+3 <= len(buf) {
				b0, b1, b2 := buf[off], buf[off+1], buf[off+2]
				switch {
				case b0 < 0x80:
					row[j] = C(unzigzag(uint64(b0)))
					off++
					continue
				case b1 < 0x80:
					row[j] = C(unzigzag(uint64(b0&0x7f) | uint64(b1)<<7))
					off += 2
					continue
				case b2 < 0x80:
					row[j] = C(unzigzag(uint64(b0&0x7f) | uint64(b1&0x7f)<<7 | uint64(b2)<<14))
					off += 3
					continue
				}
			}
			r.off = off
			v := unzigzag(r.uvarint())
			if row[j] = C(v); r.err == nil && int64(row[j]) != v {
				r.fail(fmt.Errorf("%w: %d", ErrCellRange, v))
			}
			if r.err != nil {
				break
			}
			off = r.off
		}
		r.off = off
		locals = append(locals, R(row))
	}
	return persons, locals
}

// endBytes counts the bytes of b below 0x80, the last byte of every varint:
// eight at a time, a byte's clear top bit set in ^x's 0x80 lane, then the
// tail one by one.
func endBytes(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(b) & 0x8080808080808080)
	}
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// ---- routing: summary ----

// SummaryReply carries one station's routing summary: the Bloom digest of
// every resident pattern's accumulated cells at the positions Length implies
// (index.Summary), which the coordinator caches and probes to decide whether
// a search batch needs to visit the station at all. The filter parameters
// travel with the words so the coordinator reconstructs the exact key space
// the station inserted into (index.FromParts takes exactly these fields).
// Inserted is 0 only for a station that holds no residents.
type SummaryReply struct {
	Length   uint32
	Seed     uint64
	Bits     uint64
	Hashes   uint32
	Inserted uint64
	Words    []uint64
}

// summaryHeaderMax bounds a summary reply's bytes before the words: three
// uvarint fields, the two 8-byte fields and the uvarint word count.
const summaryHeaderMax = 4*binary.MaxVarintLen64 + 16

// EncodeSummaryReply renders a station's routing summary into one payload
// allocation sized up front, reading s.Words without retaining it.
//
// Allocation pin: alloc_pin_test.go holds it to 1 alloc/op.
func EncodeSummaryReply(s SummaryReply) Message {
	w := writer{buf: make([]byte, 0, summaryHeaderMax+8*len(s.Words))}
	w.uvarint(uint64(s.Length))
	w.u64(s.Seed)
	w.u64(s.Bits)
	w.uvarint(uint64(s.Hashes))
	w.uvarint(s.Inserted)
	writeWords(&w, s.Words)
	return Message{Kind: KindSummaryReply, Payload: w.buf}
}

// DecodeSummaryReply parses a routing summary message. A hash count of 0 is
// refused with ErrNoHashes before the words are read; whether the words fit
// the declared bit length is index.FromParts' check.
func DecodeSummaryReply(m Message) (SummaryReply, error) {
	if m.Kind != KindSummaryReply {
		return SummaryReply{}, fmt.Errorf("wire: decoding %v as summary-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := SummaryReply{
		Length:   r.u32(),
		Seed:     r.u64(),
		Bits:     r.u64(),
		Hashes:   r.u32(),
		Inserted: r.uvarint(),
	}
	if r.err == nil && out.Hashes == 0 {
		return SummaryReply{}, ErrNoHashes
	}
	out.Words = readWords(r)
	if err := r.done(); err != nil {
		return SummaryReply{}, err
	}
	return out, nil
}

// ---- lifecycle: stats ----

// StatsReply is a peer's answer to KindStats, KindIngest and KindEvict: how
// many residents it holds, the raw bytes they occupy, and the pattern length
// it serves (0 when empty) — which doubles as a handshake check when a link
// joins a cluster.
type StatsReply struct {
	Residents    uint64
	StorageBytes uint64
	Length       uint32
	// Seq counts the mutations the peer has answered since it began serving,
	// so of two replies to concurrent mutations the later one is known.
	Seq uint64
}

// EncodeStatsReply renders the stats answer.
func EncodeStatsReply(s StatsReply) Message {
	var w writer
	w.uvarint(s.Residents)
	w.uvarint(s.StorageBytes)
	w.uvarint(uint64(s.Length))
	w.uvarint(s.Seq)
	return Message{Kind: KindStatsReply, Payload: w.buf}
}

// DecodeStatsReply parses the stats answer.
func DecodeStatsReply(m Message) (StatsReply, error) {
	if m.Kind != KindStatsReply {
		return StatsReply{}, fmt.Errorf("wire: decoding %v as stats-reply", m.Kind)
	}
	r := &reader{buf: m.Payload}
	out := StatsReply{
		Residents:    r.uvarint(),
		StorageBytes: r.uvarint(),
		Length:       r.u32(),
		Seq:          r.uvarint(),
	}
	if err := r.done(); err != nil {
		return StatsReply{}, err
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

// zigzag maps signed to unsigned so small-magnitude values stay short.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
