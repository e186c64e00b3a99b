// Package stream turns mutation into a first-class sustained workload: a
// streaming ingest pipeline in front of the cluster's Place.
//
// Submit admits a pattern into one bounded intake queue. One flusher
// goroutine drains the queue into a latest-wins batch of at most FlushBatch
// persons and hands the batch to Cluster.Place, which picks every person's
// replica group, records the placement intent and pushes one grouped,
// acknowledged ingest exchange per station. Streamed persons are therefore
// placed exactly like Place'd ones. Place holds the cluster's heal lock, so
// a membership change's heal always runs after any flush already in flight
// and re-replicates whatever that flush stranded on a departed station; the
// persons a flush landed nowhere are retried, in order, before the next
// batch.
//
// Backpressure is the bounded intake: while a flush is out the queue fills,
// and admission control engages — Block makes Submit wait, Shed makes it
// return ErrOverloaded with the drop accounted. TTL-based eviction
// (Options.TTL) registers every flushed person on a deadline wheel whose
// sweeps drive grouped Unplace batches, so stations self-trim under
// sustained load.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
)

// Admission selects what Submit does when the intake queue is full.
type Admission int

const (
	// Block makes Submit wait for queue space (or the caller's ctx). The
	// pipeline applies backpressure to the producer; nothing is dropped.
	Block Admission = iota
	// Shed makes Submit return ErrOverloaded immediately when the intake
	// queue is full. The drop is counted in the Shed counter — the caller
	// chose latency over completeness and the accounting shows exactly how
	// much completeness was paid.
	Shed
)

func (a Admission) String() string {
	switch a {
	case Block:
		return "block"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

var (
	// ErrOverloaded reports a shed-mode Submit that found the intake queue
	// full. The submission was not admitted; it is counted in Shed.
	ErrOverloaded = errors.New("stream: pipeline overloaded")
	// ErrClosed reports a Submit or Flush after Close.
	ErrClosed = errors.New("stream: ingestor closed")
)

// maxFlushAttempts bounds how many Place calls one person may spend before
// it is abandoned (counted in FlushFailures). Each attempt picks targets
// over the then-current membership, so the budget is only exhausted under
// sustained total failure.
const maxFlushAttempts = 5

// Options configures one streaming pipeline.
type Options struct {
	// QueueCap bounds the intake queue, in patterns (default 1024). Smaller
	// queues bound memory and admission latency; larger ones absorb
	// burstier producers. See docs/OPERATIONS.md for sizing guidance.
	QueueCap int
	// FlushBatch is the most persons one flush — one Place call — carries
	// (default 2048: about 256 copies per station exchange at R = 2 over 16
	// stations). The flusher flushes when its batch fills, its FlushInterval
	// elapses or Flush asks, whichever is first.
	FlushBatch int
	// FlushInterval bounds how long the flusher holds a non-empty batch
	// before flushing it (default 25ms) — the freshness bound for a trickle
	// workload.
	FlushInterval time.Duration
	// FlushTimeout bounds each Place call (default 10s); persons a timed-out
	// flush landed nowhere are retried.
	FlushTimeout time.Duration
	// Admission selects Block (default) or Shed when the intake saturates.
	Admission Admission
	// TTL, when positive, expires every streamed pattern TTL after its
	// submission: a deadline wheel sweeps expired persons and drives
	// grouped Unplace batches. Resubmitting a person extends their
	// deadline. Zero disables eviction.
	TTL time.Duration
	// Replication is the number of stations each pattern is copied to
	// (Place's WithReplication, default cluster.DefaultReplication).
	// Clamped to the alive membership.
	Replication int
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.FlushBatch <= 0 {
		o.FlushBatch = 2048
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 25 * time.Millisecond
	}
	if o.FlushTimeout <= 0 {
		o.FlushTimeout = 10 * time.Second
	}
	if o.Replication <= 0 {
		o.Replication = cluster.DefaultReplication
	}
	return o
}

// item is one admitted submission. The pattern is cloned at Submit.
type item struct {
	person   core.PersonID
	pat      pattern.Pattern
	deadline time.Time // zero when TTL is off
}

// entry is one person's slot in a batch: the latest submitted pattern and
// deadline, and how many accepted submissions placing it settles.
type entry struct {
	pat      pattern.Pattern
	deadline time.Time
	subs     int64
}

// Ingestor is a running streaming pipeline over one cluster. All methods
// are safe for concurrent use; any number of goroutines may Submit.
type Ingestor struct {
	c    *cluster.Cluster
	opts Options

	// ctx is the pipeline's lifetime: the flusher and the evictor run
	// until Close cancels it (after the final drain).
	ctx    context.Context
	cancel context.CancelFunc

	intake chan item
	kick   chan struct{} // capacity 1: "flush what you hold now"
	done   chan struct{} // closed when the flusher exits
	closed atomic.Bool

	counters metrics.StreamCounters
	// pending counts accepted submissions not yet in a terminal state
	// (placed or abandoned); Flush waits for it to reach zero.
	pending atomic.Int64

	evictor    *evictor // nil when TTL is off
	unregister func()
}

// New starts a streaming pipeline over the cluster. The pipeline registers
// itself as a Stats stream-health provider; Close releases it.
func New(c *cluster.Cluster, opts Options) (*Ingestor, error) {
	opts = opts.withDefaults()
	if len(c.AliveStationIDs()) == 0 {
		return nil, cluster.ErrNoAliveStations
	}
	//dimatch:allow ctxflow — the pipeline outlives any one caller's context; Close cancels it after the final drain
	ctx, cancel := context.WithCancel(context.Background())
	in := &Ingestor{
		c:      c,
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		intake: make(chan item, opts.QueueCap),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if opts.TTL > 0 {
		in.evictor = newEvictor(in, opts.TTL)
	}
	go in.flusher()
	in.unregister = c.RegisterStreamStats(in.Report)
	return in, nil
}

// Submit admits one (person, pattern) into the pipeline. The pattern is
// cloned, so the caller may reuse its slice. Length mismatches return an
// error wrapping cluster.ErrLengthMismatch, a value an int32 cannot hold
// one wrapping cluster.ErrValueRange; all-zero patterns are skipped
// silently (no measurable activity means no pattern — the stations' own
// ingest rule). When the intake queue is full, Block admission waits for
// space (bounded by ctx) and Shed admission returns ErrOverloaded with the
// drop accounted. Admission is not application: an accepted pattern reaches
// its stations on the next flush; call Flush for a barrier.
func (in *Ingestor) Submit(ctx context.Context, person core.PersonID, pat pattern.Pattern) error {
	if ctx == nil {
		ctx = context.Background()
	}
	in.counters.Submitted.Add(1)
	if in.closed.Load() {
		in.counters.Rejected.Add(1)
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		in.counters.Rejected.Add(1)
		return fmt.Errorf("%w: %w", cluster.ErrCancelled, err)
	}
	if len(pat) != in.c.PatternLength() {
		in.counters.Rejected.Add(1)
		return fmt.Errorf("%w: stream person %d pattern length %d, cluster is %d",
			cluster.ErrLengthMismatch, person, len(pat), in.c.PatternLength())
	}
	if !pat.InRange() {
		in.counters.Rejected.Add(1)
		return fmt.Errorf("%w: stream person %d", cluster.ErrValueRange, person)
	}
	if pat.Sum() == 0 {
		in.counters.Rejected.Add(1)
		return nil
	}
	it := item{person: person, pat: pat.Clone()}
	if in.opts.TTL > 0 {
		it.deadline = time.Now().Add(in.opts.TTL)
	}

	// The pending count rises before the submission can possibly reach a
	// terminal state, so Flush never observes a spurious zero.
	in.pending.Add(1)
	if in.opts.Admission == Shed {
		select {
		case in.intake <- it:
		default:
			in.pending.Add(-1)
			in.counters.Shed.Add(1)
			return ErrOverloaded
		}
	} else {
		select {
		case in.intake <- it:
		default:
			// Slow path: the queue is full, the producer waits — that is
			// the backpressure engaging, and Blocked records it.
			in.counters.Blocked.Add(1)
			select {
			case in.intake <- it:
			case <-ctx.Done():
				in.pending.Add(-1)
				in.counters.Rejected.Add(1)
				return fmt.Errorf("%w: %w", cluster.ErrCancelled, ctx.Err())
			case <-in.ctx.Done():
				in.pending.Add(-1)
				in.counters.Rejected.Add(1)
				return ErrClosed
			}
		}
	}
	in.counters.Accepted.Add(1)
	return nil
}

// Flush is the barrier: it returns once every submission accepted before
// the call is in a terminal state — placed or abandoned after its retry
// budget. The flusher is kicked so a partial batch goes out immediately
// rather than waiting for its interval. Submissions racing the call extend
// the wait; quiesce producers first for a strict barrier.
func (in *Ingestor) Flush(ctx context.Context) error {
	if in.closed.Load() {
		return ErrClosed
	}
	return in.drain(ctx)
}

// drain is Flush without the closed check — Close's own final barrier.
func (in *Ingestor) drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for in.pending.Load() > 0 {
		select {
		case in.kick <- struct{}{}:
		default: // a kick is already pending
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", cluster.ErrCancelled, ctx.Err())
		case <-in.ctx.Done():
			return ErrClosed
		case <-ticker.C:
		}
	}
	return nil
}

// closeDrainTimeout bounds Close's final drain: a cluster that stopped
// acking flushes must not wedge Close forever.
const closeDrainTimeout = 30 * time.Second

// Close drains the pipeline and stops it: new Submits fail with ErrClosed,
// everything already accepted is flushed (bounded by closeDrainTimeout),
// the TTL evictor and the flusher exit, and the stats-provider
// registration is released. Close is idempotent; the first call's drain
// error (if any) is returned.
func (in *Ingestor) Close() error {
	if in.closed.Swap(true) {
		return nil
	}
	//dimatch:allow ctxflow — Close is the pipeline's ctx-less teardown API; closeDrainTimeout bounds the final drain instead of a caller ctx
	ctx, cancel := context.WithTimeout(context.Background(), closeDrainTimeout)
	err := in.drain(ctx)
	cancel()
	in.cancel()
	<-in.done
	if in.evictor != nil {
		in.evictor.wait()
	}
	in.unregister()
	return err
}

// Report snapshots the pipeline's admission, flush and eviction totals.
func (in *Ingestor) Report() *metrics.StreamStats {
	s := in.counters.Snapshot()
	return &s
}

// abandon accounts n accepted submissions as lost.
func (in *Ingestor) abandon(n int64) {
	in.counters.FlushFailures.Add(uint64(n))
	in.pending.Add(-n)
}

// flusher is the pipeline's one worker: collect a batch, place it, repeat.
// On shutdown anything left in the intake (a drain that timed out) is
// abandoned, keeping the pending count truthful.
func (in *Ingestor) flusher() {
	defer close(in.done)
	for {
		batch := in.collect()
		if batch == nil {
			break
		}
		in.flush(batch)
	}
	for {
		select {
		case <-in.intake:
			in.abandon(1)
		default:
			return
		}
	}
}

// collect blocks for the next batch, latest submission per person wins. It
// returns once FlushBatch persons are held, FlushInterval has passed since
// the first arrived or a Flush kicked, and nil once the pipeline stops.
func (in *Ingestor) collect() map[core.PersonID]*entry {
	batch := make(map[core.PersonID]*entry)
	add := func(it item) {
		e := batch[it.person]
		if e == nil {
			e = &entry{}
			batch[it.person] = e
		}
		e.pat, e.deadline = it.pat, it.deadline
		e.subs++
	}
	for len(batch) == 0 {
		select {
		case it := <-in.intake:
			add(it)
		case <-in.kick: // nothing held, nothing to flush
		case <-in.ctx.Done():
			return nil
		}
	}
	timer := time.NewTimer(in.opts.FlushInterval)
	defer timer.Stop()
	for len(batch) < in.opts.FlushBatch {
		select {
		case it := <-in.intake:
			add(it)
		case <-timer.C:
			return batch
		case <-in.kick:
			return batch
		case <-in.ctx.Done():
			for _, e := range batch {
				in.abandon(e.subs)
			}
			return nil
		}
	}
	return batch
}

// flush places one batch. The persons a Place call landed nowhere are
// retried at once — before any later batch, so a person's earlier pattern
// can never overwrite a later one — until maxFlushAttempts calls are spent.
func (in *Ingestor) flush(batch map[core.PersonID]*entry) {
	patterns := make(map[core.PersonID]pattern.Pattern, len(batch))
	for p, e := range batch {
		patterns[p] = e.pat
	}
	for attempt := 1; ; attempt++ {
		// The error only joins the failed station exchanges: unplaced names
		// who needs a retry, and a person who landed on fewer than R
		// stations is Place's partial success, topped up by the next
		// reconciliation pass (every membership change runs one).
		ctx, cancel := context.WithTimeout(in.ctx, in.opts.FlushTimeout)
		unplaced, _ := in.c.Place(ctx, patterns, cluster.WithReplication(in.opts.Replication))
		cancel()
		in.counters.Flushes.Add(1)
		retry := make(map[core.PersonID]pattern.Pattern, len(unplaced))
		for _, p := range unplaced {
			retry[p] = patterns[p]
		}
		for p := range patterns {
			if _, again := retry[p]; again {
				continue
			}
			e := batch[p]
			in.counters.FlushedPatterns.Add(1)
			if in.evictor != nil {
				in.evictor.note(p, e.deadline)
			}
			in.pending.Add(-e.subs)
		}
		if len(retry) == 0 {
			return
		}
		if attempt == maxFlushAttempts || in.ctx.Err() != nil {
			for p := range retry {
				in.abandon(batch[p].subs)
			}
			return
		}
		patterns = retry
	}
}
