// Package cluster assembles the distributed system of the paper: one data
// center node N0 and l base station nodes N1..Nl, each base station holding
// the local patterns of the persons it observed. Stations run as goroutines
// (the paper used one thread per base station) connected to the center by
// metered message links, so a search measures real serialized traffic.
//
// Three end-to-end strategies are implemented, matching the paper's
// comparison set: StrategyNaive ships all data to the center, StrategyBF
// runs DI-matching with a plain Bloom filter, StrategyWBF runs full
// DI-matching with the Weighted Bloom Filter.
//
// The data center does three things to a station — disseminate a filter,
// collect reports, pull raw local patterns — and each exists once: every
// concurrent exchange runs through roundtripAll/fanOut, every raw-pattern
// pull is a KindDump (exchange.go). The coordinator is laid out as
// cluster.go (the type and its construction), membership.go (lifecycle,
// mutation, the join path), stats.go, search.go, wbf.go (the DI-matching
// pipeline), route.go (the one pruning pass) and baselines.go (BF, naive).
package cluster

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

// Station is one base station node: a local pattern store plus a serve loop
// answering the data center over a link. The store is mutable — ingest and
// evict messages arrive on the same link as queries and are applied by the
// serve loop between exchanges, so mutations and searches are serialized by
// construction and never race.
type Station struct {
	id   uint32
	link transport.Link

	// residents holds the station's resident patterns, person-ID ascending
	// for deterministic replies. It owns its rows — everything applied is
	// copied in — and only the Serve loop touches it after construction.
	residents store.Residents

	// summary memoizes the routing summary between store mutations, so a
	// coordinator refreshing after every search round does not rebuild the
	// digest per request. Only the Serve loop touches it (mutations arrive
	// on the same loop), so no locking is needed.
	summary *index.Summary

	// plan is the adaptive parameter table the coordinator rolled out, nil
	// while the station runs the static table. paramEpoch is the highest
	// parameter epoch seen, so reordered rollout frames cannot reinstall
	// superseded parameters. Serve-loop-only, like summary; a
	// restarted durable station comes back with plan == nil and degrades to
	// the static table on its first rebuild — the coordinator's next rollout
	// re-adapts it.
	plan       *index.Plan
	paramEpoch uint64

	// durable, when non-nil, persists every applied batch before its ack is
	// sent (see NewStoredStation). Nil keeps the pre-persistence behavior:
	// the resident store lives in this process's memory only.
	durable store.Store
}

// NewStation builds a station from its local pattern store. The patterns are
// copied in, so the caller's map stays the caller's. All-zero patterns are
// dropped: a person with no measurable activity at the station has no local
// pattern there (and would otherwise spuriously probe the filters at
// accumulated value zero).
func NewStation(id uint32, locals map[core.PersonID]pattern.Pattern, link transport.Link) *Station {
	s := &Station{id: id, link: link}
	s.seed(locals)
	return s
}

// seed upserts locals in person order — sorted first, so the store appends
// instead of shifting — and returns the batch of what was applied, views of
// the caller's patterns.
func (s *Station) seed(locals map[core.PersonID]pattern.Pattern) store.Batch {
	persons := make([]core.PersonID, 0, len(locals))
	for p := range locals {
		persons = append(persons, p)
	}
	sort.Slice(persons, func(i, j int) bool { return persons[i] < persons[j] })
	b := store.Batch{Op: store.OpIngest}
	for _, p := range persons {
		if s.residents.Upsert(p, locals[p]) {
			b.Persons = append(b.Persons, p)
			b.Locals = append(b.Locals, locals[p])
		}
	}
	return b
}

// NewStoredStation builds a station whose resident store is backed by st:
// the durable state is recovered first (residents plus, when the backend has
// one that still covers them, the memoized routing digest), then any seed
// locals are applied and persisted on top. Restarting a crashed station is
// NewStoredStation with nil locals over the same backend. The station owns
// the store from here on — Serve closes it on exit.
func NewStoredStation(id uint32, locals map[core.PersonID]pattern.Pattern, link transport.Link, st store.Store) (*Station, error) {
	img, err := st.Recover()
	if err != nil {
		return nil, fmt.Errorf("station %d: recover: %w", id, err)
	}
	s := &Station{id: id, link: link, summary: img.Digest, durable: st}
	// The image is copied in, not adopted: a backend may go on reading what
	// it returned, and the station overwrites its rows in place.
	if err := s.residents.Load(img); err != nil {
		return nil, fmt.Errorf("station %d: recover: %w", id, err)
	}
	if got, want := s.residents.Len(), len(img.Persons); got != want {
		return nil, fmt.Errorf("station %d: recovered image: %d of %d residents rejected (unsorted, duplicate, all-zero or of a second pattern length)", id, want-got, want)
	}
	if b := s.seed(locals); len(b.Persons) > 0 {
		if err := st.Append(b); err != nil {
			return nil, fmt.Errorf("station %d: persist seed: %w", id, err)
		}
		s.summary = nil
	}
	return s, nil
}

// ID returns the station identifier.
func (s *Station) ID() uint32 { return s.id }

// patternLength returns the resident patterns' shared length, 0 when empty.
func (s *Station) patternLength() int { return s.residents.Length() }

// Residents returns the number of stored local patterns.
func (s *Station) Residents() int { return s.residents.Len() }

// StorageBytes returns the bytes the station dedicates to its raw local
// patterns (8 bytes per value), the baseline storage every strategy pays.
func (s *Station) StorageBytes() uint64 { return s.residents.Bytes() }

// Serve processes center messages until a shutdown message arrives or the
// link closes. It is the goroutine body of a station node. Every reply
// echoes its request's wire ID, which is what lets the center run many
// searches over this link concurrently: its dispatcher routes each reply to
// the search that asked.
//
// A durable station closes its store on the way out, flushing anything the
// sync policy still buffered — a graceful exit is a clean shutdown; only a
// kill -9 exercises recovery.
func (s *Station) Serve() error {
	err := s.serveLoop()
	if s.durable != nil {
		if cerr := s.durable.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("station %d: %w", s.id, cerr)
		}
	}
	return err
}

func (s *Station) serveLoop() error {
	for {
		msg, err := s.link.Recv()
		if err != nil {
			if err == transport.ErrClosed {
				return nil
			}
			return fmt.Errorf("station %d: %w", s.id, err)
		}
		var reply *wire.Message
		switch msg.Kind {
		case wire.KindBatchQuery:
			reply, err = s.handleBatch(msg)
		case wire.KindBFQuery:
			reply, err = s.handleBF(msg)
		case wire.KindDump:
			reply, err = s.handleDump(msg)
		case wire.KindIngest:
			reply, err = s.handleIngest(msg)
		case wire.KindEvict:
			reply, err = s.handleEvict(msg)
		case wire.KindStats:
			reply = s.handleStats()
		case wire.KindSummary:
			reply, err = s.handleSummary()
		case wire.KindParamUpdate:
			reply, err = s.handleParamUpdate(msg)
		case wire.KindShutdown:
			return nil
		default:
			err = fmt.Errorf("station %d: unexpected message %v", s.id, msg.Kind)
		}
		if err != nil {
			return err
		}
		if reply != nil {
			if err := s.link.Send(reply.WithRequest(msg.Request)); err != nil {
				return fmt.Errorf("station %d: %w", s.id, err)
			}
		}
	}
}

// handleBatch answers one search round — Algorithm 2 over every resident: a
// single walk over the resident store, fanned across a GOMAXPROCS-bounded
// worker pool, probes the round's combined filter once per resident and
// answers every query of the round in one reply.
func (s *Station) handleBatch(msg wire.Message) (*wire.Message, error) {
	bq, err := wire.DecodeBatchQuery(msg)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	reports, err := core.MatchResidents(bq.Filter, s.residents.Persons(), s.residents.Locals(), 0)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	reply := wire.EncodeBatchReply(wire.BatchReply{
		Station: s.id,
		Queries: uint32(len(bq.Queries)),
		Reports: reports,
	})
	return &reply, nil
}

// handleBF is the baseline: an all-bits-set pattern is reported by bare ID.
func (s *Station) handleBF(msg wire.Message) (*wire.Message, error) {
	q, err := wire.DecodeBFQuery(msg)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	matcher, err := core.NewBFMatcher(q.Filter, q.Params, q.Length)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	var persons []core.PersonID
	if s.residents.Length() == q.Length {
		for i, local := range s.residents.Locals() {
			ok, err := matcher.Match(local)
			if err != nil {
				return nil, fmt.Errorf("station %d: %w", s.id, err)
			}
			if ok {
				persons = append(persons, s.residents.Persons()[i])
			}
		}
	}
	reply := wire.EncodeBFMatches(wire.BFMatches{Station: s.id, Persons: persons})
	return &reply, nil
}

// handleDump ships the raw local patterns of the requested persons — or the
// whole store when the filter is empty: the naive strategy's shipment, the
// verification phase's candidate fetch, the re-replication pull. Persons the
// station does not hold are simply absent from the reply.
func (s *Station) handleDump(msg wire.Message) (*wire.Message, error) {
	req, err := wire.DecodeDump(msg)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
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
	reply, err := wire.EncodeDumpReply(wire.DumpReply{
		Station: s.id,
		Persons: persons,
		Locals:  locals,
	})
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	return &reply, nil
}

// handleIngest inserts or replaces resident patterns — the station absorbing
// freshly observed call data. The store's rule decides what is applied:
// all-zero patterns (no measurable activity means no local pattern; removal
// is the evict message's job) and patterns of a foreign length are skipped.
// On a durable station the applied batch is appended to the store before the
// ack is encoded: a batch the center saw acknowledged is never lost to a
// crash the store's sync policy covers.
func (s *Station) handleIngest(msg wire.Message) (*wire.Message, error) {
	in, err := wire.DecodeIngest(msg)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	applied := store.Batch{Op: store.OpIngest}
	for i, p := range in.Persons {
		if s.residents.Upsert(p, in.Locals[i]) {
			applied.Persons = append(applied.Persons, p)
			applied.Locals = append(applied.Locals, in.Locals[i])
		}
	}
	return s.ackApplied(applied)
}

// ackApplied finishes a mutation: when anything was applied the memoized
// routing summary no longer covers the store (and Bloom filters cannot
// delete, so an evict needs the rebuild as much as an ingest), and a durable
// station persists the batch before the ack exists.
func (s *Station) ackApplied(applied store.Batch) (*wire.Message, error) {
	if len(applied.Persons) > 0 {
		s.summary = nil
		if s.durable != nil {
			if err := s.persist(applied); err != nil {
				return nil, err
			}
		}
	}
	reply := wire.EncodeAck(wire.Ack{Station: s.id, Applied: uint64(len(applied.Persons))})
	return &reply, nil
}

// persist appends one applied batch to the durable store and lets it fold
// the log when its thresholds say so. The digest is built (if not already
// memoized) only when a fold actually happens, which is what writes the
// memoized summary into the snapshot for recovery. Errors are fatal to the
// serve loop: the ack for this batch must never be sent if durability was
// promised and not delivered.
func (s *Station) persist(b store.Batch) error {
	if err := s.durable.Append(b); err != nil {
		return fmt.Errorf("station %d: %w", s.id, err)
	}
	_, err := s.durable.Compact(func() (store.Image, error) {
		if err := s.ensureSummary(); err != nil {
			return store.Image{}, err
		}
		return store.Image{Persons: s.residents.Persons(), Locals: s.residents.Locals(), Digest: s.summary}, nil
	})
	if err != nil {
		return fmt.Errorf("station %d: %w", s.id, err)
	}
	return nil
}

// handleEvict removes residents — expired data, opted-out subscribers, or a
// person handed off to another station. Unknown persons are ignored.
func (s *Station) handleEvict(msg wire.Message) (*wire.Message, error) {
	ev, err := wire.DecodeEvict(msg)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	applied := store.Batch{Op: store.OpEvict}
	for _, p := range ev.Persons {
		if s.residents.Evict(p) {
			applied.Persons = append(applied.Persons, p)
		}
	}
	return s.ackApplied(applied)
}

// handleStats reports the station's resident count and storage footprint.
// The pattern length (0 when empty) lets the center sanity-check a joining
// link against the cluster's time-series length.
func (s *Station) handleStats() *wire.Message {
	length := s.patternLength()
	reply := wire.EncodeStatsReply(wire.StatsReply{
		Station:      s.id,
		Residents:    uint64(s.Residents()),
		StorageBytes: s.StorageBytes(),
		Length:       uint32(length),
	})
	return &reply
}

// handleSummary answers the coordinator's routing-summary pull: a Bloom
// digest of every resident's accumulated cells (see internal/index). The
// digest is memoized until the next ingest or evict, so steady-state
// refreshes cost one encode, not one store walk.
func (s *Station) handleSummary() (*wire.Message, error) {
	if err := s.ensureSummary(); err != nil {
		return nil, err
	}
	reply := wire.EncodeSummaryReply(s.summary, s.id)
	return &reply, nil
}

// handleParamUpdate applies a coordinator parameter rollout: a
// plan switches the routing digest onto the adaptive table, a nil plan
// orders the station back onto the static one. Updates whose epoch does not
// advance the station's are ignored — a reordered frame from a superseded
// rollout must not reinstall old parameters. The ack echoes the epoch the
// station now runs and whether an adaptive plan is in effect; Applied =
// false on a non-nil plan means the station could not honor it and degraded
// to the static table, which is always sound (an adaptive digest is a
// routing optimization, never a correctness dependency).
func (s *Station) handleParamUpdate(msg wire.Message) (*wire.Message, error) {
	pu, err := wire.DecodeParamUpdate(msg)
	if err != nil {
		return nil, fmt.Errorf("station %d: %w", s.id, err)
	}
	if pu.Epoch >= s.paramEpoch {
		// Same-epoch duplicates re-apply idempotently (the build is
		// deterministic); only a frame from a superseded epoch is dropped.
		s.paramEpoch = pu.Epoch
		s.applyPlan(pu.Plan)
	}
	reply := wire.EncodeParamAck(wire.ParamAck{Station: s.id, Epoch: s.paramEpoch, Applied: s.plan != nil})
	return &reply, nil
}

// applyPlan installs the adaptive plan (nil reverts to static), rebuilding
// the digest eagerly so the ack only reports Applied after the plan has
// actually been honored. Any failure degrades to the static table: plan and
// summary are cleared and the next pull rebuilds statically.
func (s *Station) applyPlan(p *index.Plan) {
	s.plan = nil
	s.summary = nil
	if p == nil {
		return
	}
	length := s.patternLength()
	if length == 0 {
		// An empty station cannot match the plan's length; its 1-cell static
		// placeholder admits nothing, which adaptive bits cannot improve on.
		return
	}
	sum, err := index.BuildAdaptive(p, length, s.residents.Locals())
	if err != nil {
		return
	}
	s.plan = p
	s.summary = sum
}

// ensureSummary (re)builds the memoized routing digest when a mutation
// dropped it — under the installed adaptive plan when one is live, else the
// static table. Both builders are deterministic in the resident set, which
// is what makes a digest rebuilt after recovery byte-identical to the
// pre-crash one. A plan the mutated store can no longer honor (e.g. the
// first ingest fixed a pattern length the plan does not match) is dropped:
// the station degrades to static rather than serve no digest at all.
func (s *Station) ensureSummary() error {
	if s.summary != nil {
		return nil
	}
	length := s.patternLength()
	if length == 0 {
		// An empty store has no length of its own; a 1-cell summary with
		// nothing inserted admits no query, which is exactly right.
		length = 1
	}
	if s.plan != nil {
		if sum, err := index.BuildAdaptive(s.plan, length, s.residents.Locals()); err == nil {
			s.summary = sum
			return nil
		}
		s.plan = nil
	}
	sum, err := index.Build(length, s.residents.Locals())
	if err != nil {
		return fmt.Errorf("station %d: %w", s.id, err)
	}
	s.summary = sum
	return nil
}
