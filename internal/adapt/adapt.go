// Package adapt derives traffic-adaptive routing-digest parameters from the
// coordinator's observed query mix — the Daisy-style feedback loop the
// static WBF weight table lacks.
//
// The paper's parameters are tuned for uniform queries, but a live
// coordinator sees the real distribution: which positions a search samples
// (per-search sample counts pick different subsets), how wide each ε band
// is (the scaled tolerance widens bands with the position index), and how
// the query values skew. Daisy Bloom filters (Bercea, Houen & Pagh) show
// that when insert and query frequencies are known, per-element parameters
// chosen from those frequencies minimize the false-positive rate at fixed
// space. Here the "elements" are the digest's position groups: the Profiler
// accumulates sliding-window per-position probe and band-volume counters
// from the search path, and Derive solves for per-group bit budgets, hash
// counts and value quanta under the station's existing memory budget —
// same memory, lower false-route rate.
//
// The output is an index.Plan: relative bit weights (stations resolve them
// against their own static budget), per-group hash counts, and per-group
// quantization steps that implement the per-band ε scaling — positions
// probed with wide bands get coarse quanta, so a band probe costs a bounded
// number of lookups instead of one per value. The plan travels to stations
// as a KindParamUpdate and every failure path — a plan that cannot fit, a
// mid-rollout crash — degrades to the static table, never to a mixed or
// unsound digest.
package adapt

import (
	"fmt"
	"math"
	"sync"

	"dimatch/internal/index"
)

// DefaultWindow is the profiler's sliding-window size in observed queries:
// once a window fills, every counter is halved, so the profile tracks
// roughly the last 2·DefaultWindow queries with exponential age-out.
const DefaultWindow = 4096

// targetProbesPerBand tunes quantization: a quantized group's quantum aims
// to reduce its mean observed band to about this many lookups.
const targetProbesPerBand = 32

// quantizeMinWidth is the mean band width below which a group is never
// quantized. Quantization trades a small deterministic over-admission at
// the band edges for fewer lookups and fewer distinct keys; on narrow bands
// that trade always loses to the static table's exact resolution, so the
// solver only coarsens groups whose bands are genuinely wide.
const quantizeMinWidth = 64

// missSmoothing blends a sliver of the raw probe volume into the
// miss-weighted objective so groups with no observed empty bands yet still
// keep a non-degenerate bit share when emptiness feedback is available.
const missSmoothing = 0.01

// ErrNoTraffic reports a Derive call before the profiler has observed any
// selective probes; the caller must stay on the static table.
var ErrNoTraffic = fmt.Errorf("adapt: no traffic observed yet")

// Profiler accumulates the coordinator's observed query-attribute frequency
// distribution: per pattern position, how many ε bands probed it and their
// total value volume. All methods are safe for concurrent use — searches
// feed it while rollouts snapshot it.
type Profiler struct {
	mu         sync.Mutex
	length     int       // dimatch:guardedby mu
	window     uint64    // dimatch:guardedby mu
	observed   uint64    // dimatch:guardedby mu — queries since the last decay
	queries    float64   // dimatch:guardedby mu — decayed query count
	probes     []float64 // dimatch:guardedby mu — decayed per-position band count
	volume     []float64 // dimatch:guardedby mu — decayed per-position band value volume
	misses     []float64 // dimatch:guardedby mu — decayed per-position empty-band count
	missVolume []float64 // dimatch:guardedby mu — decayed per-position empty-band value volume
}

// NewProfiler returns a profiler for patterns of the given length. window
// is the decay window in queries (DefaultWindow when <= 0).
func NewProfiler(length, window int) *Profiler {
	if length <= 0 {
		length = 1
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Profiler{
		length:     length,
		window:     uint64(window),
		probes:     make([]float64, length),
		volume:     make([]float64, length),
		misses:     make([]float64, length),
		missVolume: make([]float64, length),
	}
}

// Length returns the pattern length the profiler covers.
func (p *Profiler) Length() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.length
}

// Observe folds one query's admission probe into the window. Unselective
// probes carry no bands and only advance the query clock.
func (p *Profiler) Observe(probe index.Probe) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Pinned under mu for the EachBand closure; the slices are mutated in
	// place, still under the same critical section.
	length, probes, volume := p.length, p.probes, p.volume
	probe.EachBand(func(pos int, lo, hi int64) {
		if pos < 0 || pos >= length {
			return
		}
		probes[pos]++
		volume[pos] += float64(hi-lo) + 1
	})
	p.queries++
	p.observed++
	if p.observed >= p.window {
		p.observed = 0
		p.queries /= 2
		for i := range p.probes {
			p.probes[i] /= 2
			p.volume[i] /= 2
			p.misses[i] /= 2
			p.missVolume[i] /= 2
		}
	}
}

// ObserveMiss folds one empty band into the window: a band at position pos
// covering [lo, hi] that no station digest admitted. False admissions can
// only happen on empty bands, so this is the emptiness feedback that lets
// the solver weight bits by where errors are possible rather than by raw
// probe volume. The coordinator derives it from the digests it already
// holds — a band admitted by no station is, to within the digests' own
// false-positive rate, empty fleet-wide.
func (p *Profiler) ObserveMiss(pos int, lo, hi int64) {
	if pos < 0 || hi < lo {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pos >= p.length {
		return
	}
	p.misses[pos]++
	p.missVolume[pos] += float64(hi-lo) + 1
}

// Snapshot is an immutable copy of the profiler's window, the solver's
// input.
type Snapshot struct {
	// Length is the pattern length.
	Length int
	// Queries is the (decayed) number of queries observed.
	Queries float64
	// Probes[g] is the (decayed) number of ε bands probed at position g.
	Probes []float64
	// Volume[g] is the (decayed) total band width probed at position g —
	// the number of digest lookups the static table would spend there.
	Volume []float64
	// Misses[g] is the (decayed) number of observed empty bands at position
	// g (bands no station digest admitted), and MissVolume[g] their total
	// width. Optional: when all-zero the solver falls back to weighting by
	// raw probe volume.
	Misses     []float64
	MissVolume []float64
}

// Snapshot returns a copy of the current window.
func (p *Profiler) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Snapshot{
		Length:     p.length,
		Queries:    p.queries,
		Probes:     append([]float64(nil), p.probes...),
		Volume:     append([]float64(nil), p.volume...),
		Misses:     append([]float64(nil), p.misses...),
		MissVolume: append([]float64(nil), p.missVolume...),
	}
}

// Reset clears the window — the operator's "freeze and restart profiling"
// control (docs/OPERATIONS.md).
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observed = 0
	p.queries = 0
	for i := range p.probes {
		p.probes[i] = 0
		p.volume[i] = 0
		p.misses[i] = 0
		p.missVolume[i] = 0
	}
}

// Derive solves for an adaptive parameter plan from a traffic snapshot: the
// Daisy-style allocation that minimizes the expected number of false band
// admissions per query at fixed total space.
//
// residents is the reference station size the solver optimizes for (the
// fleet's mean; each station re-scales the weights against its own budget),
// seed the digest key-space seed, and epoch the parameter epoch to stamp.
// The objective is sum_g weight_g · fp(m_g, k_g, n_g), where weight_g is
// the group's quantized lookup volume exposed to false admission (the
// observed empty-band volume when emptiness feedback is present, the full
// probe volume otherwise), n_g its expected distinct cells, and fp the
// analytic Bloom false-positive rate; bits move greedily to the group with
// the largest marginal reduction, and each group's hash count is re-fit to
// its budget as it grows. Groups the window never probed keep the one-word
// floor — they cost nothing to queries that never look there.
func Derive(s Snapshot, residents int, seed, epoch uint64) (*index.Plan, error) {
	if s.Length <= 0 || len(s.Probes) != s.Length || len(s.Volume) != s.Length {
		return nil, fmt.Errorf("adapt: malformed snapshot (length %d, %d probe counters, %d volume counters)",
			s.Length, len(s.Probes), len(s.Volume))
	}
	if (s.Misses != nil && len(s.Misses) != s.Length) || (s.MissVolume != nil && len(s.MissVolume) != s.Length) {
		return nil, fmt.Errorf("adapt: malformed snapshot (length %d, %d miss counters, %d miss-volume counters)",
			s.Length, len(s.Misses), len(s.MissVolume))
	}
	var bands float64
	for _, c := range s.Probes {
		bands += c
	}
	if s.Queries <= 0 || bands <= 0 {
		return nil, ErrNoTraffic
	}
	if residents < 1 {
		residents = 1
	}

	// Quantization first: a group whose mean observed band is wide gets a
	// quantum targeting its mean width; narrow bands keep full resolution,
	// where the static table is already exact and coarsening only
	// over-admits.
	quanta := make([]int64, s.Length)
	qvolume := make([]float64, s.Length) // per-query fp-exposed lookup weight
	for g := range quanta {
		quanta[g] = 1
		if s.Probes[g] > 0 {
			mean := s.Volume[g] / s.Probes[g]
			if mean >= quantizeMinWidth {
				q := int64(math.Round(mean / targetProbesPerBand))
				if q > index.MaxPlanQuantum {
					q = index.MaxPlanQuantum
				}
				if q > 1 {
					quanta[g] = q
				}
			}
			qvolume[g] = s.fpLookupWeight(g, quanta[g])
		}
	}

	// The reference budget: what the static table would spend on a station
	// of this size. Allocation is in 64-bit words, one-word floor per
	// group; the greedy loop moves the spare words to whichever group's
	// weighted false-positive mass drops the most.
	budget := index.StaticBudgetBits(s.Length, residents)
	words := budget / 64
	if words < uint64(s.Length) {
		return nil, fmt.Errorf("adapt: budget %d bits cannot cover %d groups", budget, s.Length)
	}
	alloc := make([]uint64, s.Length)
	for g := range alloc {
		alloc[g] = 1
	}
	spare := words - uint64(s.Length)
	// Distinct cells per group: at most one per resident, fewer once
	// quantization merges neighbors — bounded by residents, which is the
	// conservative (pessimistic) side for fp estimation.
	n := uint64(residents)
	cost := func(g int, w uint64) float64 {
		return qvolume[g] * groupFP(w*64, n)
	}
	// Move spare words in chunks so huge budgets stay cheap to solve; the
	// chunk is at least one word and at most 1/128 of the spare pool.
	chunk := spare / 128
	if chunk == 0 {
		chunk = 1
	}
	for spare > 0 {
		step := chunk
		if step > spare {
			step = spare
		}
		best, bestGain := -1, 0.0
		for g := range alloc {
			gain := cost(g, alloc[g]) - cost(g, alloc[g]+step)
			if gain > bestGain {
				best, bestGain = g, gain
			}
		}
		if best < 0 {
			// No group benefits (all volumes zero or fp already ~0): spread
			// the remainder evenly to keep the budget fully spent.
			for g := range alloc {
				share := spare / uint64(len(alloc)-g)
				alloc[g] += share
				spare -= share
			}
			break
		}
		alloc[best] += step
		spare -= step
	}

	groups := make([]index.PlanGroup, s.Length)
	for g := range groups {
		w := alloc[g]
		if w > index.MaxPlanWeight {
			// Renormalizing would lose at most a word of precision per
			// group; in practice budgets stay far below this.
			w = index.MaxPlanWeight
		}
		groups[g] = index.PlanGroup{
			Weight:  uint32(w),
			Hashes:  fitHashes(w*64, n),
			Quantum: quanta[g],
		}
	}
	plan := &index.Plan{Epoch: epoch, Seed: seed, Length: s.Length, Groups: groups}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("adapt: derived plan invalid: %w", err)
	}
	return plan, nil
}

// fitHashes returns the optimal hash count for m bits holding n elements,
// clamped to the plan bounds.
func fitHashes(m, n uint64) uint8 {
	if n == 0 {
		return 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > index.MaxPlanHashes {
		k = index.MaxPlanHashes
	}
	return uint8(k)
}

// groupFP is the analytic false-positive rate of an m-bit group holding n
// cells at its fitted hash count.
func groupFP(m, n uint64) float64 {
	return index.GeomFPRate(index.GroupGeom{Bits: m, Hashes: fitHashes(m, n), Quantum: 1}, n)
}

// hasMissData reports whether the snapshot carries emptiness feedback.
func (s Snapshot) hasMissData() bool {
	if len(s.Misses) != s.Length || len(s.MissVolume) != s.Length {
		return false
	}
	for _, m := range s.Misses {
		if m > 0 {
			return true
		}
	}
	return false
}

// fpLookupWeight is the per-query lookup volume at position g that is
// exposed to false admission under quantum q. False admissions only happen
// on empty bands, so with emptiness feedback the weight is the missed
// lookup volume (lightly smoothed with the raw probe volume so unmissed
// groups keep a floor); without feedback every probed lookup is assumed
// exposed.
func (s Snapshot) fpLookupWeight(g int, q int64) float64 {
	if s.Queries <= 0 {
		return 0
	}
	vol, probes := s.Volume[g], s.Probes[g]
	if s.hasMissData() {
		vol = s.MissVolume[g] + missSmoothing*vol
		probes = s.Misses[g] + missSmoothing*probes
	}
	return lookupVolume(vol, probes, q) / s.Queries
}

// PlanFalseRouteBound returns the analytic Daisy-style bound on the
// expected number of false band admissions per query under the plan at a
// station of the given size and budget: sum_g weight_g · fp_g, with the
// same fp-exposed lookup weights the solver optimizes. The statistical test
// harness asserts measured rates stay under it; the bench reports it beside
// the measured figure.
func PlanFalseRouteBound(p *index.Plan, s Snapshot, residents int, budgetBits uint64) (float64, error) {
	geoms, err := index.PartitionBudget(p, budgetBits)
	if err != nil {
		return 0, err
	}
	if s.Queries <= 0 {
		return 0, ErrNoTraffic
	}
	n := uint64(residents)
	var bound float64
	for g, geom := range geoms {
		if g >= len(s.Volume) {
			break
		}
		bound += s.fpLookupWeight(g, geom.Quantum) * index.GeomFPRate(geom, n)
	}
	return bound, nil
}

// lookupVolume is the digest lookup cost of the observed band volume at a
// quantum: exact at q=1, and at most w/q+1 lookups per band of width w when
// quantized.
func lookupVolume(volume, probes float64, q int64) float64 {
	if q <= 1 {
		return volume
	}
	return volume/float64(q) + probes
}

// StaticFalseRouteBound is the same bound for the static table at the same
// budget: every fp-exposed lookup pays the single filter's fp at
// residents·length insertions, and bands are probed at full resolution.
func StaticFalseRouteBound(s Snapshot, residents int, budgetBits uint64, hashes int) float64 {
	if s.Queries <= 0 {
		return 0
	}
	n := uint64(residents) * uint64(s.Length)
	fp := index.GeomFPRate(index.GroupGeom{Bits: budgetBits, Hashes: uint8(hashes), Quantum: 1}, n)
	var bound float64
	for g := range s.Volume {
		bound += s.fpLookupWeight(g, 1) * fp
	}
	return bound
}
