package stream

import (
	"context"
	"sync"
	"time"

	"dimatch/internal/core"
)

// evictor is the pipeline's TTL deadline wheel. Every placed person
// registers their deadline; a sweeper goroutine ticks at a fraction of the
// TTL, collects persons whose deadline passed, and drives one grouped
// Unplace per sweep — which evicts the person from every alive station
// (robust to copies having moved in a heal since they were flushed), forgets
// the placement intent, and invalidates the summary-cache digests for the
// touched stations, so an expired person stops matching and stops routing
// in the same step.
//
// Resubmitting a person before expiry extends their deadline (note keeps
// the max). A person resubmitted in the tick-wide window while their
// previous incarnation's eviction is in flight may be evicted with it; the
// next resubmission restores them.
type evictor struct {
	in   *Ingestor
	tick time.Duration
	done chan struct{} // closed when the sweeper exits

	mu sync.Mutex
	// deadlines is the authoritative expiry per live person.
	deadlines map[core.PersonID]time.Time // dimatch:guardedby mu
	// buckets indexes persons by deadline-tick for cheap sweeps; a person
	// whose deadline moved is lazily re-bucketed when their stale bucket
	// comes due.
	buckets map[int64][]core.PersonID // dimatch:guardedby mu
}

func newEvictor(in *Ingestor, ttl time.Duration) *evictor {
	tick := ttl / 20
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	e := &evictor{
		in:        in,
		tick:      tick,
		done:      make(chan struct{}),
		deadlines: make(map[core.PersonID]time.Time),
		buckets:   make(map[int64][]core.PersonID),
	}
	go e.run()
	return e
}

// note registers a placed person. Deadlines only ever extend: a refresh
// from a resubmission wins over the original expiry.
func (e *evictor) note(p core.PersonID, deadline time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.deadlines[p]; !ok || deadline.After(cur) {
		e.armLocked(p, deadline)
	}
}

// armLocked sets a person's deadline and files them under its tick.
// Callers hold e.mu.
func (e *evictor) armLocked(p core.PersonID, deadline time.Time) {
	e.deadlines[p] = deadline
	b := deadline.UnixNano() / int64(e.tick)
	e.buckets[b] = append(e.buckets[b], p)
}

// wait blocks until the sweeper goroutine has exited (the pipeline context
// is cancelled first by Close).
func (e *evictor) wait() {
	<-e.done
}

func (e *evictor) run() {
	defer close(e.done)
	ticker := time.NewTicker(e.tick)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			e.sweep(now)
		case <-e.in.ctx.Done():
			return
		}
	}
}

// sweep collects every person whose deadline passed and evicts them in one
// grouped Unplace. Unplace serializes with Place and every heal under the
// cluster's heal lock, so eviction never interleaves with a flush or a
// reconciliation moving the same person's copies.
func (e *evictor) sweep(now time.Time) {
	nowBucket := now.UnixNano() / int64(e.tick)
	var expired []core.PersonID
	e.mu.Lock()
	for b, persons := range e.buckets {
		if b > nowBucket {
			continue
		}
		delete(e.buckets, b)
		for _, p := range persons {
			dl, ok := e.deadlines[p]
			if !ok {
				continue // already evicted via an older bucket entry
			}
			if dl.After(now) {
				// Deadline was extended after this bucket entry was made:
				// re-bucket at the real expiry.
				nb := dl.UnixNano() / int64(e.tick)
				e.buckets[nb] = append(e.buckets[nb], p)
				continue
			}
			expired = append(expired, p)
			delete(e.deadlines, p)
		}
	}
	e.mu.Unlock()
	if len(expired) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(e.in.ctx, e.in.opts.FlushTimeout)
	err := e.in.c.Unplace(ctx, expired)
	cancel()
	if err != nil {
		// Re-arm everyone for the next sweep rather than leaking them; a
		// person resubmitted meanwhile keeps their new deadline.
		e.mu.Lock()
		for _, p := range expired {
			if _, ok := e.deadlines[p]; !ok {
				e.armLocked(p, now.Add(e.tick))
			}
		}
		e.mu.Unlock()
		return
	}
	e.in.counters.TTLEvictions.Add(uint64(len(expired)))
}
