package dimatch

import (
	"fmt"
	"sort"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// station is one base station node: a local pattern store plus a serve loop
// answering the data center over a link. The store is mutable — ingest and
// evict messages arrive on the same link as queries and are applied by the
// serve loop between exchanges, so mutations and searches are serialized by
// construction and never race.
type station struct {
	id   uint32
	link Link

	// residents holds the station's resident patterns as int32 cells,
	// person-ID ascending for deterministic replies. It owns its rows —
	// everything applied is copied in or adopted whole — and only the Serve
	// loop touches it after construction. Every reader below takes its rows
	// as they are; nothing widens them to int64.
	residents store.Residents

	// durable, when non-nil, persists every applied batch before its reply
	// is sent (see newStation). Nil keeps the pre-persistence behavior:
	// the resident store lives in this process's memory only.
	durable Store

	// seq counts the mutations answered since Serve began (StatsReply.Seq).
	seq uint64

	// round is the search rounds' scratch, reused from one KindBatchQuery
	// to the next; only the Serve loop touches it.
	round roundScratch
}

// roundScratch is what a station reuses across search rounds: the decoded
// query (its IDs and its filter's arrays, sample positions and keyer), the
// walk's matchers, reports and pointer arenas, and the reply's grouping
// index and payload. A warm round allocates only for the walk's worker
// goroutines, beside the frame its link read. Between rounds it holds at
// most roundScratchMax bytes: a round that grew it past that drops it once
// its reply is sent.
type roundScratch struct {
	query wire.BatchQuery
	walk  core.Walk
	reply wire.ReplyEncoder
}

// roundScratchMax bounds what a station keeps between rounds. On the
// largest station of the benchmark's city (3 618 residents) a 1-query round
// keeps ≈ 6 KiB and a 16-query round ≈ 154 KiB, so both stay warm; a round
// larger than this pays its own allocations, as every round did before the
// scratch (TestStationRoundScratchBounded).
const roundScratchMax = 512 << 10

// bytes returns the capacity the scratch holds.
func (r *roundScratch) bytes() int {
	return 4*cap(r.query.Queries) + r.query.Filter.HeapBytes() + r.walk.Bytes() + r.reply.Bytes()
}

// trim drops the scratch when it holds more than roundScratchMax bytes.
func (r *roundScratch) trim() {
	if r.bytes() > roundScratchMax {
		*r = roundScratch{}
	}
}

// newStation builds a station from its seed patterns and, when st is
// non-nil, a durable backend. A durable station recovers its residents
// first, then applies and persists the seed on top; restarting a
// crashed station is newStation with nil locals over the same backend, and
// the station owns the store from then on — Serve closes it on exit.
//
// The seed is copied in, so the caller's map stays the caller's. A seed
// value an int32 cannot hold fails with ErrValueRange before anything
// is recovered or applied; a nil st then cannot fail. All-zero patterns are
// dropped: a person with no measurable activity at the station has no local
// pattern there (and would otherwise spuriously probe the filters at
// accumulated value zero).
func newStation(id uint32, locals map[PersonID]Pattern, link Link, st Store) (*station, error) {
	if err := checkRange(fmt.Sprintf("station %d seed", id), locals); err != nil {
		return nil, err
	}
	s := &station{id: id, link: link, durable: st}
	if st != nil {
		img, err := st.RecoverCells()
		if err != nil {
			return nil, fmt.Errorf("station %d: recover: %w", id, err)
		}
		// The image is copied in, not adopted: a backend may go on reading
		// what it returned, and the station overwrites its rows in place.
		if err := s.residents.Load(img); err != nil {
			return nil, fmt.Errorf("station %d: recover: %w", id, err)
		}
		if got, want := s.residents.Len(), len(img.Persons); got != want {
			return nil, fmt.Errorf("station %d: recovered image: %d of %d residents rejected (unsorted, duplicate, all-zero or of a second pattern length)", id, want-got, want)
		}
	}
	if b := s.seed(locals); len(b.Persons) > 0 {
		if st != nil {
			if err := st.AppendCells(b); err != nil {
				return nil, fmt.Errorf("station %d: persist seed: %w", id, err)
			}
		}
	}
	return s, nil
}

// seed upserts locals (newStation checked their range) in person order —
// sorted first, so the store appends instead of shifting — each through one
// reused int32 row, and returns the batch of what was applied: views of the
// store's rows, good until its next mutation.
func (s *station) seed(locals map[PersonID]Pattern) store.CellBatch {
	persons := make([]PersonID, 0, len(locals))
	for p := range locals {
		persons = append(persons, p)
	}
	sort.Slice(persons, func(i, j int) bool { return persons[i] < persons[j] })
	b := store.CellBatch{Op: store.OpIngest}
	var row []int32
	for _, p := range persons {
		row = pattern.AppendCells(row[:0], locals[p])
		if s.residents.Upsert(p, row) {
			b.Persons = append(b.Persons, p)
		}
	}
	for _, p := range b.Persons {
		i, _ := s.residents.Find(p)
		b.Locals = append(b.Locals, s.residents.Locals()[i])
	}
	return b
}

// patternLength returns the resident patterns' shared length, 0 when empty.
func (s *station) patternLength() int { return s.residents.Length() }

// Residents returns the number of stored local patterns.
func (s *station) Residents() int { return s.residents.Len() }

// StorageBytes returns the bytes of the station's raw local patterns at the
// paper's 8 bytes per value, the baseline storage every strategy pays — not
// what its int32 store holds (store.Residents.HeapBytes).
func (s *station) StorageBytes() uint64 { return s.residents.Bytes() }

// Serve processes center messages until a shutdown message arrives or the
// link closes. It is the goroutine body of a station node. Every reply
// echoes its request's wire ID, which is what lets the center run many
// searches over this link concurrently: its dispatcher routes each reply to
// the search that asked.
//
// A durable station closes its store on the way out — a graceful exit is a
// clean shutdown; only a kill -9 exercises recovery.
func (s *station) Serve() error {
	err := s.serveLoop()
	if s.durable != nil {
		if cerr := s.durable.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("station %d: %w", s.id, cerr)
		}
	}
	return err
}

func (s *station) serveLoop() error {
	for {
		msg, err := s.link.Recv()
		if err != nil {
			if err == transport.ErrClosed {
				return nil
			}
			return fmt.Errorf("station %d: %w", s.id, err)
		}
		if msg.Kind == wire.KindShutdown {
			return nil
		}
		reply, err := s.handle(msg)
		if err != nil {
			return err
		}
		if err := s.link.Send(reply.WithRequest(msg.Request)); err != nil {
			return fmt.Errorf("station %d: %w", s.id, err)
		}
		// The link keeps no payload once Send returns, so the reply's
		// buffers are free for the next round.
		s.round.trim()
	}
}

// handle answers one center message other than a shutdown.
func (s *station) handle(msg wire.Message) (wire.Message, error) {
	switch msg.Kind {
	case wire.KindBatchQuery:
		return s.handleBatch(msg)
	case wire.KindBFQuery:
		return s.handleBF(msg)
	case wire.KindDump:
		return s.handleDump(msg)
	case wire.KindIngest:
		return s.handleIngest(msg)
	case wire.KindEvict:
		return s.handleEvict(msg)
	case wire.KindStats:
		return s.handleStats(), nil
	case wire.KindSummary:
		return s.handleSummary()
	default:
		return wire.Message{}, fmt.Errorf("station %d: unexpected message %v", s.id, msg.Kind)
	}
}

// handleBatch answers one search round — Algorithm 2 over every resident the
// round's person bound [From, To) admits: a single walk over that slice of
// the person-ascending store, fanned across a GOMAXPROCS-bounded worker
// pool, probes the round's combined filter once per resident and answers
// every query of the round in one reply. The query, the walk and the reply
// live in the station's round scratch; the reply's payload is valid until
// the next round.
func (s *station) handleBatch(msg wire.Message) (wire.Message, error) {
	r := &s.round
	if err := wire.DecodeBatchQueryInto(&r.query, msg); err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	persons, locals := s.residents.Range(r.query.From, r.query.To)
	reports, err := core.WalkMatch(&r.walk, r.query.Filter, persons, locals, 0)
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	return r.reply.Encode(wire.BatchReply{
		Station: s.id,
		Queries: uint32(len(r.query.Queries)),
		Reports: reports,
	}), nil
}

// handleBF is the baseline: an all-bits-set pattern is reported by bare ID.
func (s *station) handleBF(msg wire.Message) (wire.Message, error) {
	q, err := wire.DecodeBFQuery(msg)
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	matcher, err := core.NewBFMatcher(q.Filter, q.Params, q.Length)
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	var persons []PersonID
	if s.residents.Length() == q.Length {
		for i, local := range s.residents.Locals() {
			ok, err := core.MatchBF(matcher, local)
			if err != nil {
				return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
			}
			if ok {
				persons = append(persons, s.residents.Persons()[i])
			}
		}
	}
	return wire.EncodeBFMatches(wire.BFMatches{Persons: persons}), nil
}

// handleDump ships the raw local patterns of the requested persons — or the
// whole store when the filter is empty: the naive strategy's shipment, the
// verification phase's candidate fetch, the re-replication pull. Persons the
// station does not hold are simply absent from the reply.
func (s *station) handleDump(msg wire.Message) (wire.Message, error) {
	req, err := wire.DecodeDump(msg)
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	persons := s.residents.Persons()
	locals := s.residents.Locals()
	if len(req.Persons) > 0 {
		// The request's persons arrive ascending (delta-encoded); anything
		// that does not ascend is a repeat, and the reply lists a person once.
		all := locals
		persons, locals = nil, nil
		for k, p := range req.Persons {
			if k > 0 && p <= req.Persons[k-1] {
				continue
			}
			if i, ok := s.residents.Find(p); ok {
				persons = append(persons, p)
				locals = append(locals, all[i])
			}
		}
	}
	reply, err := wire.EncodeDumpReply(wire.DumpReplyOf[[]int32, int32]{
		Persons: persons,
		Locals:  locals,
	})
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	return reply, nil
}

// handleIngest inserts or replaces resident patterns — the station absorbing
// freshly observed call data. The store's rule decides what is applied:
// all-zero patterns (no measurable activity means no local pattern; removal
// is the evict message's job) and patterns of a foreign length are skipped.
// On a durable station the applied batch is appended to the store before the
// reply is encoded: a batch the center saw answered is never lost to a
// crash the store covers. When every received row applied, the batch carries
// the received payload, which the WAL logs as is; otherwise it carries only
// the applied rows. The frame decodes straight into int32 cells, and a
// value an int32 cannot hold fails the decode rather than being stored as
// another.
func (s *station) handleIngest(msg wire.Message) (wire.Message, error) {
	in, err := wire.DecodeIngest[[]int32](msg)
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	// The decoded rows are this call's own. A batch landing after every
	// resident becomes the store's as it is.
	if s.residents.AdoptRows(in.Persons, in.Locals) {
		return s.ackApplied(store.CellBatch{Op: store.OpIngest, Persons: in.Persons, Locals: in.Locals, Payload: msg.Payload})
	}
	// Otherwise each row is copied in: compact the applied ones to the front
	// in place.
	n := 0
	for i, p := range in.Persons {
		if s.residents.Upsert(p, in.Locals[i]) {
			in.Persons[n], in.Locals[n] = p, in.Locals[i]
			n++
		}
	}
	applied := store.CellBatch{Op: store.OpIngest, Persons: in.Persons[:n], Locals: in.Locals[:n]}
	if n == len(in.Persons) {
		applied.Payload = msg.Payload
	}
	return s.ackApplied(applied)
}

// ackApplied finishes a mutation: when anything was applied a durable
// station persists the batch before the reply exists. The reply is the
// station's stats after the mutation.
func (s *station) ackApplied(applied store.CellBatch) (wire.Message, error) {
	if len(applied.Persons) > 0 && s.durable != nil {
		if err := s.persist(applied); err != nil {
			return wire.Message{}, err
		}
	}
	s.seq++
	return s.handleStats(), nil
}

// persist appends one applied batch to the durable store and lets it fold
// the log into a snapshot of the residents when its thresholds say so.
// Errors are fatal to the serve loop: the reply to this batch must never be
// sent if durability was promised and not delivered.
func (s *station) persist(b store.CellBatch) error {
	if err := s.durable.AppendCells(b); err != nil {
		return fmt.Errorf("station %d: %w", s.id, err)
	}
	if _, err := s.durable.Compact(store.CellImage{Persons: s.residents.Persons(), Locals: s.residents.Locals()}); err != nil {
		return fmt.Errorf("station %d: %w", s.id, err)
	}
	return nil
}

// handleEvict removes residents — expired data, opted-out subscribers, or a
// person handed off to another station. Unknown persons are ignored.
func (s *station) handleEvict(msg wire.Message) (wire.Message, error) {
	ev, err := wire.DecodeEvict(msg)
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	applied := store.CellBatch{Op: store.OpEvict}
	for _, p := range ev.Persons {
		if s.residents.Evict(p) {
			applied.Persons = append(applied.Persons, p)
		}
	}
	return s.ackApplied(applied)
}

// handleStats reports the station's figures (stats). It also answers every
// mutation, so the center's figures never need a stats exchange of their own.
func (s *station) handleStats() wire.Message {
	return wire.EncodeStatsReply(s.stats())
}

// stats is the station's resident count, storage footprint and mutation
// count. The pattern length (0 when empty) lets the center sanity-check a
// joining link against the cluster's time-series length.
func (s *station) stats() wire.StatsReply {
	return wire.StatsReply{
		Residents:    uint64(s.Residents()),
		StorageBytes: s.StorageBytes(),
		Length:       uint32(s.patternLength()),
		Seq:          s.seq,
	}
}

// handleSummary answers the coordinator's routing-summary pull: a Bloom
// digest of every resident's accumulated cells at the sampled positions
// (see internal/index), built, encoded and dropped. The coordinator pulls
// only into an empty or invalidated cache slot, so a kept digest would be
// read once and then held for nothing. index.Build is deterministic in the
// resident set, which is what makes a digest rebuilt after recovery
// byte-identical to the pre-crash one.
func (s *station) handleSummary() (wire.Message, error) {
	length := s.patternLength()
	if length == 0 {
		// An empty store has no length of its own; a 1-cell summary with
		// nothing inserted admits no query, which is exactly right.
		length = 1
	}
	sum, err := index.Build(length, s.residents.Locals())
	if err != nil {
		return wire.Message{}, fmt.Errorf("station %d: %w", s.id, err)
	}
	return encodeSummary(sum), nil
}
