package dimatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dimatch/internal/pattern"
)

// ErrStreamClosed reports a Submit or Flush after Close.
var ErrStreamClosed = errors.New("stream: ingestor closed")

const (
	// queueCap bounds the intake queue, in patterns.
	queueCap = 1024
	// flushBatch is the most persons one flush — one Place call — carries:
	// about 256 copies per station exchange at R = 2 over 16 stations. The
	// flusher flushes when its batch fills, flushInterval elapses or it
	// reads a barrier, whichever is first.
	flushBatch = 2048
	// flushInterval bounds how long the flusher holds a non-empty batch: the
	// freshness bound for a trickle workload.
	flushInterval = 25 * time.Millisecond
	// flushTimeout bounds each Place call; persons a timed-out flush landed
	// nowhere are retried.
	flushTimeout = 10 * time.Second
	// maxFlushAttempts bounds how many Place calls one person may spend
	// before it is abandoned (counted in FlushFailures). Each attempt picks
	// targets over the then-current membership, so the budget is only
	// exhausted under sustained total failure.
	maxFlushAttempts = 5
	// closeDrainTimeout bounds Close's final drain: a cluster that stopped
	// acking flushes must not wedge Close forever.
	closeDrainTimeout = 30 * time.Second
)

// StreamOptions configures one streaming pipeline (see Cluster.Stream).
type StreamOptions struct {
	// Replication is the number of stations each pattern is copied to
	// (Place's WithReplication, default DefaultReplication).
	// Clamped to the alive membership.
	Replication int
}

// StreamStats is a point-in-time snapshot of a pipeline's admission and flush
// totals, as Ingestor.Report returns it. Each counter is exact on its own;
// Accepted + Rejected == Submitted holds once no Submit is in flight.
type StreamStats struct {
	// Submitted counts every Submit call, whatever its outcome.
	Submitted uint64 `json:"submitted"`
	// Accepted counts submissions admitted into the pipeline.
	Accepted uint64 `json:"accepted"`
	// Rejected counts submissions refused before admission: length or
	// value-range mismatches, all-zero patterns, a closed pipeline and
	// cancelled contexts.
	Rejected uint64 `json:"rejected"`
	// Blocked counts submissions that had to wait for queue space before
	// being accepted (they are also counted in Accepted).
	Blocked uint64 `json:"blocked"`
	// Flushes counts the pipeline's Place calls, retries included;
	// FlushedPatterns counts the patterns they placed.
	Flushes         uint64 `json:"flushes"`
	FlushedPatterns uint64 `json:"flushed_patterns"`
	// FlushFailures counts accepted submissions abandoned after exhausting
	// their flush retry budget, or still queued when Close's final drain
	// timed out — the only ways an accepted pattern is lost.
	FlushFailures uint64 `json:"flush_failures"`
}

// streamCounters is the live, lock-free form of StreamStats: Submit callers
// and the flusher update it concurrently.
type streamCounters struct {
	submitted, accepted, rejected, blocked  atomic.Uint64
	flushes, flushedPatterns, flushFailures atomic.Uint64
}

func (c *streamCounters) snapshot() StreamStats {
	return StreamStats{
		Submitted:       c.submitted.Load(),
		Accepted:        c.accepted.Load(),
		Rejected:        c.rejected.Load(),
		Blocked:         c.blocked.Load(),
		Flushes:         c.flushes.Load(),
		FlushedPatterns: c.flushedPatterns.Load(),
		FlushFailures:   c.flushFailures.Load(),
	}
}

// streamItem is one entry of the intake: an admitted submission, its
// pattern cloned at Submit, or, when barrier is set, a Flush's or Close's
// barrier, which the flusher closes once every submission queued ahead of
// it is placed or abandoned.
type streamItem struct {
	person  PersonID
	pat     Pattern
	barrier chan struct{}
}

// streamEntry is one person's slot in a batch: the latest submitted
// pattern, and how many accepted submissions placing it settles.
type streamEntry struct {
	pat  Pattern
	subs uint64
}

// Ingestor is a running streaming pipeline over one cluster. All methods
// are safe for concurrent use; any number of goroutines may Submit.
type Ingestor struct {
	c           *Cluster
	replication int

	// ctx is the pipeline's lifetime: the flusher runs until Close cancels
	// it (after the final drain).
	ctx    context.Context
	cancel context.CancelFunc

	intake chan streamItem
	done   chan struct{} // closed when the flusher exits

	// closeMu makes a Submit's or Flush's closed check and its enqueue one
	// step with respect to Close: they hold it for reading, Close takes it
	// for writing to set closed, so nothing is enqueued behind Close's
	// barrier, and every barrier is in the intake before the flusher stops.
	closeMu sync.RWMutex
	closed  atomic.Bool

	counters streamCounters
}

// Stream starts a streaming ingest pipeline over the cluster and returns
// its Ingestor, or ErrNoAliveStations when no member is alive.
//
// Submit admits a pattern into one bounded intake queue. One flusher
// goroutine drains the queue into a latest-wins batch of at most flushBatch
// persons and hands the batch to Place, which picks every person's replica
// group, records the placement intent and pushes one grouped, acknowledged
// ingest exchange per station. Streamed patterns are therefore placed
// exactly like Place'd ones: searches dedupe their replica reports,
// membership changes re-replicate them and Unplace expires them. Place
// holds the heal lock, so a membership change's heal always runs after any
// flush already in flight and re-replicates whatever that flush stranded on
// a departed station; the persons a flush landed nowhere are retried, in
// order, before the next batch.
//
// Backpressure is the bounded intake: while a flush is out the queue fills
// and Submit waits for space, bounded by its ctx — a producer that must not
// wait passes a ctx with a deadline. Any number of pipelines may run over
// one cluster; each reads its own totals through Ingestor.Report. Flush
// and Close queue a barrier behind what was accepted before them, so
// producers that keep submitting never extend their wait. The caller owns
// Close, which drains accepted patterns before stopping.
func (c *Cluster) Stream(opts StreamOptions) (*Ingestor, error) {
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if alive, _ := c.aliveMembers(); len(alive) == 0 {
		return nil, ErrNoAliveStations
	}
	//dimatch:allow ctxflow — the pipeline outlives any one caller's context; Close cancels it after the final drain
	ctx, cancel := context.WithCancel(context.Background())
	in := &Ingestor{
		c:           c,
		replication: opts.Replication,
		ctx:         ctx,
		cancel:      cancel,
		intake:      make(chan streamItem, queueCap),
		done:        make(chan struct{}),
	}
	go in.flusher()
	return in, nil
}

// Submit admits one (person, pattern) into the pipeline. The pattern is
// cloned, so the caller may reuse its slice. Length mismatches return an
// error wrapping ErrLengthMismatch, a value an int32 cannot hold
// one wrapping ErrValueRange; all-zero patterns are skipped
// silently (no measurable activity means no pattern — the stations' own
// ingest rule). When the intake queue is full Submit waits for space,
// bounded by ctx, and a ctx that ends first returns an error wrapping
// ErrCancelled. Admission is not application: an accepted pattern
// reaches its stations on the next flush; call Flush for a barrier.
func (in *Ingestor) Submit(ctx context.Context, person PersonID, pat Pattern) error {
	if ctx == nil {
		ctx = context.Background()
	}
	in.counters.submitted.Add(1)
	in.closeMu.RLock()
	defer in.closeMu.RUnlock()
	if in.closed.Load() {
		in.counters.rejected.Add(1)
		return ErrStreamClosed
	}
	if err := ctx.Err(); err != nil {
		in.counters.rejected.Add(1)
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if len(pat) != in.c.PatternLength() {
		in.counters.rejected.Add(1)
		return fmt.Errorf("%w: stream person %d pattern length %d, cluster is %d",
			ErrLengthMismatch, person, len(pat), in.c.PatternLength())
	}
	if !pat.InRange() {
		in.counters.rejected.Add(1)
		return fmt.Errorf("%w: stream person %d", ErrValueRange, person)
	}
	if pattern.AllZero(pat) {
		in.counters.rejected.Add(1)
		return nil
	}
	it := streamItem{person: person, pat: pat.Clone()}
	select {
	case in.intake <- it:
	default:
		// Slow path: the queue is full, the producer waits — that is the
		// backpressure engaging, and Blocked records it. The flusher drains
		// the queue without closeMu, so Close waits at most for this send.
		in.counters.blocked.Add(1)
		select {
		case in.intake <- it:
		case <-ctx.Done():
			in.counters.rejected.Add(1)
			return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
		}
	}
	in.counters.accepted.Add(1)
	return nil
}

// Flush is the barrier: it returns once every submission accepted before
// the call is in a terminal state — placed, or abandoned after its retry
// budget or by a Close whose final drain timed out. It queues a barrier
// behind those submissions, which ends the flusher's batch there, so a
// partial batch goes out at once rather than waiting for its interval.
// Submissions accepted after the call do not extend the wait.
func (in *Ingestor) Flush(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	in.closeMu.RLock()
	if in.closed.Load() {
		in.closeMu.RUnlock()
		return ErrStreamClosed
	}
	return in.barrier(ctx, in.closeMu.RUnlock)
}

// barrier queues a barrier behind every item already in the intake and
// waits until the flusher closes it, both bounded by ctx. release runs
// once the enqueue is over, whatever its outcome: Flush holds its read lock
// through its closed check and enqueue only.
func (in *Ingestor) barrier(ctx context.Context, release func()) error {
	b := make(chan struct{})
	select {
	case in.intake <- streamItem{barrier: b}:
	case <-ctx.Done():
		b = nil // never queued: the wait below ends with ctx
	}
	release()
	select {
	case <-b:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
	}
}

// Close drains the pipeline and stops it: new Submits fail with ErrStreamClosed,
// a Submit already past its closed check finishes its enqueue first,
// everything accepted is flushed (a final barrier, bounded by
// closeDrainTimeout) and the flusher exits. Close is idempotent; the first
// call's drain error (if any) is returned.
func (in *Ingestor) Close() error {
	in.closeMu.Lock()
	already := in.closed.Swap(true)
	in.closeMu.Unlock()
	if already {
		return nil
	}
	//dimatch:allow ctxflow — Close is the pipeline's ctx-less teardown API; closeDrainTimeout bounds the final drain instead of a caller ctx
	ctx, cancel := context.WithTimeout(context.Background(), closeDrainTimeout)
	err := in.barrier(ctx, func() {})
	cancel()
	in.cancel()
	<-in.done
	return err
}

// Report snapshots the pipeline's admission and flush totals. It is the one
// read of the counters.
func (in *Ingestor) Report() *StreamStats {
	s := in.counters.snapshot()
	return &s
}

// flusher is the pipeline's one worker: collect a batch, place it, close
// the barrier that ended it, repeat. On shutdown the submissions left in
// the intake (a drain that timed out) are abandoned and the barriers left
// there closed.
func (in *Ingestor) flusher() {
	defer close(in.done)
	for {
		batch, barrier := in.collect()
		if batch == nil {
			break
		}
		if len(batch) > 0 {
			in.flush(batch)
		}
		if barrier != nil {
			close(barrier)
		}
	}
	for {
		select {
		case it := <-in.intake:
			if it.barrier != nil {
				close(it.barrier)
			} else {
				in.counters.flushFailures.Add(1)
			}
		default:
			return
		}
	}
}

// collect blocks for the next batch, latest submission per person wins. It
// returns once flushBatch persons are held or flushInterval has passed
// since the first arrived; a barrier ends the batch at once, empty or not,
// and is returned with it. Both are nil once the pipeline stops.
func (in *Ingestor) collect() (map[PersonID]*streamEntry, chan struct{}) {
	batch := make(map[PersonID]*streamEntry)
	var timeout <-chan time.Time // armed by the batch's first submission
	for len(batch) < flushBatch {
		select {
		case it := <-in.intake:
			if it.barrier != nil {
				return batch, it.barrier
			}
			if timeout == nil {
				timeout = time.After(flushInterval)
			}
			e := batch[it.person]
			if e == nil {
				e = &streamEntry{}
				batch[it.person] = e
			}
			e.pat = it.pat
			e.subs++
		case <-timeout:
			return batch, nil
		case <-in.ctx.Done():
			for _, e := range batch {
				in.counters.flushFailures.Add(e.subs)
			}
			return nil, nil
		}
	}
	return batch, nil
}

// flush places one batch. The persons a Place call landed nowhere are
// retried at once — before any later batch, so a person's earlier pattern
// can never overwrite a later one — until maxFlushAttempts calls are spent.
func (in *Ingestor) flush(batch map[PersonID]*streamEntry) {
	patterns := make(map[PersonID]Pattern, len(batch))
	for p, e := range batch {
		patterns[p] = e.pat
	}
	for attempt := 1; ; attempt++ {
		// The error only joins the failed station exchanges: unplaced names
		// who needs a retry, and a person who landed on fewer than R
		// stations is Place's partial success, topped up by the next
		// reconciliation pass (every membership change runs one).
		ctx, cancel := context.WithTimeout(in.ctx, flushTimeout)
		unplaced, _ := in.c.place(ctx, patterns, WithReplication(in.replication))
		cancel()
		in.counters.flushes.Add(1)
		retry := make(map[PersonID]Pattern, len(unplaced))
		for _, p := range unplaced {
			retry[p] = patterns[p]
		}
		for p := range patterns {
			if _, again := retry[p]; again {
				continue
			}
			in.counters.flushedPatterns.Add(1)
		}
		if len(retry) == 0 {
			return
		}
		if attempt == maxFlushAttempts || in.ctx.Err() != nil {
			for p := range retry {
				in.counters.flushFailures.Add(batch[p].subs)
			}
			return
		}
		patterns = retry
	}
}
