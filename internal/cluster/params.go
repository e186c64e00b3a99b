package cluster

// Adaptive routing-digest parameters. The coordinator profiles the band
// traffic its routing step actually sees (internal/adapt), derives a
// Daisy-style per-position parameter plan, and rolls it out to the plain
// stations as one epoch-atomic KindParamUpdate fan-out. Stations rebuild
// their routing digests under the plan inside their existing memory budget;
// everything stays sound if any piece fails — an adaptive digest is a
// routing optimization, never a correctness dependency, and every failure
// path degrades to the static table.

import (
	"context"
	"fmt"
	"sort"

	"dimatch/internal/adapt"
	"dimatch/internal/index"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// ParamRollout summarizes one parameter rollout: which stations now run the
// plan, which stayed (or fell back to) static, and which could not be
// reached. Station IDs ascend in every slice.
type ParamRollout struct {
	// Epoch is the parameter epoch this rollout installed. It advances on
	// every RederiveParams/ResetParams call; searches stamp the epoch live
	// at their start into CostReport.ParamEpoch.
	Epoch uint64
	// Plan is the rolled-out parameter table, nil for a reset to static.
	Plan *index.Plan
	// Applied lists stations that acknowledged running the plan.
	Applied []uint32
	// Static lists stations that answered but run the static table — a
	// reset target, or a station that could not honor the plan (e.g. an
	// empty store) and degraded.
	Static []uint32
	// Skipped lists peers the update was never sent to: route delegates
	// (regions adapt their own tier, not through this one) and peers with no
	// entry in the epoch's stats snapshot, which cannot be told from one.
	Skipped []uint32
	// Failed lists stations whose update exchange failed. Their digest state
	// is unknown, so their cached summaries are invalidated like the rest.
	Failed []uint32
}

// ParamState returns the coordinator's live parameter epoch and plan. Epoch
// 0 with a nil plan means no rollout has happened (pure static).
func (c *Cluster) ParamState() (uint64, *index.Plan) {
	c.paramMu.Lock()
	defer c.paramMu.Unlock()
	return c.paramEpoch, c.paramPlan
}

// TrafficSnapshot returns the coordinator's current traffic profile — the
// per-position probe, volume and emptiness counters the routing step has
// accumulated (see internal/adapt). Mostly an observability hook; Derive
// consumes the same snapshot inside RederiveParams.
func (c *Cluster) TrafficSnapshot() adapt.Snapshot {
	return c.profiler.Snapshot()
}

// observeRoute feeds the traffic profiler from one routing pass: every
// probe's bands count into the per-position probe/volume counters, and a
// band no consulted digest admits counts as a miss — to within the digests'
// own false-positive rate the band is empty cluster-wide, which is exactly
// the traffic whose false admissions the adaptive solver should spend bits
// suppressing. With no digests consulted (every fetch failed) emptiness is
// unobservable and only the raw counters advance.
func (c *Cluster) observeRoute(probes []index.Probe, sums []*index.Summary) {
	for _, pr := range probes {
		c.profiler.Observe(pr)
	}
	if len(sums) == 0 {
		return
	}
	for _, pr := range probes {
		pr.EachBand(func(pos int, lo, hi int64) {
			for _, sum := range sums {
				if sum.BandAdmit(pos, lo, hi) {
					return
				}
			}
			c.profiler.ObserveMiss(pos, lo, hi)
		})
	}
}

// RederiveParams derives a fresh adaptive parameter plan from the traffic
// profiled since the last derivation and rolls it out to every plain
// station as one epoch-atomic fan-out. The plan is sized for the largest
// station's resident count (conservative for smaller ones: they get the
// same shape over their own smaller budget). Route delegates and peers
// missing from the stats snapshot are skipped; a station that cannot honor
// the plan acknowledges static and keeps its exact static behavior. The
// rollout epoch only becomes the cluster's live epoch after the fan-out
// completes, and every touched station's cached summary is invalidated so
// the next routed search refetches digests built under the new parameters.
//
// Errors (no traffic yet, an empty cluster, encoding failures) leave the
// previous parameter state fully intact.
func (c *Cluster) RederiveParams(ctx context.Context) (*ParamRollout, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.rolloutMu.Lock()
	defer c.rolloutMu.Unlock()
	ep, st, epoch, err := c.nextRolloutLocked(ctx)
	if err != nil {
		return nil, err
	}
	residents := 0
	for _, s := range st.Stations {
		if s.Residents > residents {
			residents = s.Residents
		}
	}
	if residents == 0 {
		return nil, fmt.Errorf("cluster: no resident patterns to adapt parameters for")
	}

	plan, err := adapt.Derive(c.profiler.Snapshot(), residents, index.DefaultSeed, epoch)
	if err != nil {
		return nil, err
	}
	return c.rolloutLocked(ctx, ep, st, epoch, plan)
}

// ResetParams orders every capable station back onto the static table under
// a fresh parameter epoch and clears the traffic profile, so the next
// derivation starts from a clean window. The freeze knob of
// docs/OPERATIONS.md: reset and simply stop calling RederiveParams.
func (c *Cluster) ResetParams(ctx context.Context) (*ParamRollout, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.rolloutMu.Lock()
	defer c.rolloutMu.Unlock()
	ep, st, epoch, err := c.nextRolloutLocked(ctx)
	if err != nil {
		return nil, err
	}
	roll, err := c.rolloutLocked(ctx, ep, st, epoch, nil)
	if err == nil {
		c.profiler.Reset()
	}
	return roll, err
}

// nextRolloutLocked pins what one rollout works over: the live membership
// epoch, its stats snapshot and the parameter epoch the rollout will install.
// Callers hold rolloutMu, so the epoch cannot be claimed twice.
func (c *Cluster) nextRolloutLocked(ctx context.Context) (*epoch, *Stats, uint64, error) {
	ep, err := c.pinEpoch()
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := c.epochStats(ctx, ep)
	if err != nil {
		return nil, nil, 0, err
	}
	c.paramMu.Lock()
	defer c.paramMu.Unlock()
	return ep, st, c.paramEpoch + 1, nil
}

// rolloutLocked fans one ParamUpdate (plan, or nil for static) to the
// epoch's eligible stations and installs the epoch as live once the fan-out
// has completed. Callers hold rolloutMu, which is what makes a rollout
// epoch-atomic: two concurrent derivations cannot interleave their updates.
func (c *Cluster) rolloutLocked(ctx context.Context, ep *epoch, st *Stats, epoch uint64, plan *index.Plan) (*ParamRollout, error) {
	msg, err := wire.EncodeParamUpdate(wire.ParamUpdate{Epoch: epoch, Plan: plan})
	if err != nil {
		return nil, err
	}
	info := make(map[uint32]StationStats, len(st.Stations))
	for _, s := range st.Stations {
		info[s.Station] = s
	}

	roll := &ParamRollout{Epoch: epoch, Plan: plan}
	var targets []uint32
	var muxes []*transport.Mux
	for i, id := range ep.ids {
		s, ok := info[id]
		if !ok || s.Delegate {
			// No stats (so possibly a region coordinator) or a known one:
			// the peer keeps whatever table it runs. Regions adapt their own
			// tier from their own traffic; pushing a leaf plan at them would
			// mis-shape their union digests.
			roll.Skipped = append(roll.Skipped, id)
			continue
		}
		targets = append(targets, id)
		muxes = append(muxes, ep.muxes[i])
	}

	answers := roundtripAll(ctx, muxes, msg)
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The fan-out may have half-landed; invalidate every target's digest
		// (their state is unknown) but do not advance the live epoch.
		for _, id := range targets {
			c.summaries.invalidate(id)
		}
		return nil, fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
	}

	for i, id := range targets {
		// Whatever happened, the station's digest may have changed shape:
		// drop the cached copy so the next routed search refetches. (A
		// failed exchange may still have applied — same rule as Ingest's
		// error path.)
		c.summaries.invalidate(id)
		a := answers[i]
		var ack wire.ParamAck
		if a.err == nil {
			ack, a.err = wire.DecodeParamAck(a.reply)
		}
		switch {
		case a.err != nil:
			roll.Failed = append(roll.Failed, id)
		case ack.Epoch == epoch && ack.Applied && plan != nil:
			roll.Applied = append(roll.Applied, id)
		default:
			roll.Static = append(roll.Static, id)
		}
	}
	for _, s := range [][]uint32{roll.Applied, roll.Static, roll.Skipped, roll.Failed} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}

	c.paramMu.Lock()
	if epoch > c.paramEpoch {
		c.paramEpoch = epoch
		c.paramPlan = plan
	}
	c.paramMu.Unlock()
	return roll, nil
}
