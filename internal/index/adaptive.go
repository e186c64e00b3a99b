// Traffic-adaptive routing digests (Daisy-style parameterization).
//
// The static summary gives every pattern position the same share of one
// Bloom filter: one geometry, one hash count, every resident cell inserted
// at full value resolution. Observed traffic is not uniform across
// positions — the scaled tolerance widens ε bands with the position index,
// per-search sample counts probe different position subsets, and skewed
// query mixes concentrate band volume on a few positions — so the uniform
// table overspends bits where probes are rare and underspends where band
// volume concentrates, exactly the mismatch Daisy Bloom filters (Bercea,
// Houen & Pagh) address by choosing per-element parameters from the
// insert/query frequency distribution.
//
// A Plan is the adaptive parameter table the coordinator derives from its
// traffic profile (internal/adapt) and ships to stations: per
// position group g a bit-budget weight, a hash count k_g, and a value
// quantum q_g. A station partitions its *existing* memory budget — the same
// total bit count the static summary would use — into per-group regions by
// the plan's weights, hashes each group with its own k_g, and inserts cells
// at quantized resolution floor(v/q_g). Probes quantize their band the same
// way, so a band probe costs ceil(width/q_g) lookups instead of width.
//
// Soundness is unchanged from the static table: quantization maps a band
// [lo,hi] onto the quantized superset [floor(lo/q), floor(hi/q)] (floor
// division is monotone), so every resident value inside the band is probed
// under its inserted key, and Bloom insertion keeps zero false negatives
// per group. An adaptive digest can only over-admit — wasted visits, never
// a lost match — and it self-describes its geometry on the wire, so a
// coordinator probing digests from mixed parameter epochs stays
// conservative for each of them individually. Adaptive digests are excluded
// from OR-unions (Unionable reports false): their partitioned key space
// does not fold.
package index

import (
	"fmt"

	"dimatch/internal/bitset"
	"dimatch/internal/bloom"
	"dimatch/internal/hash"
	"dimatch/internal/pattern"
)

// Plan parameter bounds. They keep wire-decoded plans from forcing absurd
// geometries: a hash count beyond MaxPlanHashes only slows probing, a
// quantum beyond MaxPlanQuantum collapses every band to one bucket, and
// weights are relative so MaxPlanWeight is pure DoS hygiene.
const (
	// MaxPlanHashes caps a group's hash count.
	MaxPlanHashes = 16
	// MaxPlanQuantum caps a group's value quantization step.
	MaxPlanQuantum = 1 << 20
	// MaxPlanWeight caps a group's relative bit-budget weight.
	MaxPlanWeight = 1 << 20
	// MaxPlanGroups caps the group count (one group per pattern position).
	MaxPlanGroups = 1 << 12
)

// PlanGroup is one position's entry in an adaptive parameter table.
type PlanGroup struct {
	// Weight is the group's relative share of the station's bit budget.
	// Weights are normalized at build time, so only ratios matter.
	Weight uint32
	// Hashes is the group's Bloom hash count k_g, in [1, MaxPlanHashes].
	Hashes uint8
	// Quantum is the group's value quantization step q_g, in
	// [1, MaxPlanQuantum]. 1 keeps full resolution.
	Quantum int64
}

// Plan is a traffic-adaptive parameter table: per-group bit-budget weights,
// hash counts and value quanta, derived by the coordinator's solver
// (internal/adapt) and applied by stations under their existing memory
// budget. A Plan is immutable once shared.
type Plan struct {
	// Epoch identifies the parameter derivation; it increases with every
	// rollout and is echoed by digests built under the plan. Zero is
	// reserved for "static parameters".
	Epoch uint64
	// Seed is the digest key-space seed the plan applies to.
	Seed uint64
	// Length is the pattern length; Groups has exactly one entry per
	// position.
	Length int
	// Groups holds the per-position parameters.
	Groups []PlanGroup
}

// Validate checks the plan's shape and parameter ranges.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("index: nil plan")
	}
	if p.Epoch == 0 {
		return fmt.Errorf("index: plan epoch 0 is reserved for static parameters")
	}
	if p.Length <= 0 || p.Length > MaxPlanGroups {
		return fmt.Errorf("index: plan length %d outside [1, %d]", p.Length, MaxPlanGroups)
	}
	if len(p.Groups) != p.Length {
		return fmt.Errorf("index: plan has %d groups for length %d", len(p.Groups), p.Length)
	}
	for g, pg := range p.Groups {
		if pg.Weight == 0 || pg.Weight > MaxPlanWeight {
			return fmt.Errorf("index: plan group %d weight %d outside [1, %d]", g, pg.Weight, MaxPlanWeight)
		}
		if pg.Hashes == 0 || pg.Hashes > MaxPlanHashes {
			return fmt.Errorf("index: plan group %d hash count %d outside [1, %d]", g, pg.Hashes, MaxPlanHashes)
		}
		if pg.Quantum <= 0 || pg.Quantum > MaxPlanQuantum {
			return fmt.Errorf("index: plan group %d quantum %d outside [1, %d]", g, pg.Quantum, MaxPlanQuantum)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Groups = append([]PlanGroup(nil), p.Groups...)
	return &q
}

// Equal reports whether two plans carry identical parameters.
func (p *Plan) Equal(o *Plan) bool {
	if p == nil || o == nil {
		return p == o
	}
	if p.Epoch != o.Epoch || p.Seed != o.Seed || p.Length != o.Length || len(p.Groups) != len(o.Groups) {
		return false
	}
	for i := range p.Groups {
		if p.Groups[i] != o.Groups[i] {
			return false
		}
	}
	return true
}

// GroupGeom is one group's geometry as actually built into a digest: the
// absolute bit count the weight share resolved to, plus the hash count and
// quantum carried over from the plan. Digests ship their geometry table on
// the wire, so a received adaptive digest is self-contained.
type GroupGeom struct {
	// Bits is the group's region length in bits (a multiple of 64).
	Bits uint64
	// Hashes is the group's hash count.
	Hashes uint8
	// Quantum is the group's value quantization step.
	Quantum int64
}

// GeomFPRate returns the analytic per-lookup false-positive rate of one
// group region holding n distinct quantized cells — the building block of
// the adaptive solver's objective and the statistical test harness's bound.
func GeomFPRate(g GroupGeom, n uint64) float64 {
	return bloom.AnalyticFPRate(g.Bits, int(g.Hashes), n)
}

// StaticBudgetBits returns the total filter length the *static* summary
// sizing would grant a station of the given shape — the memory budget an
// adaptive digest must fit in. It mirrors New: OptimalParams over
// residents·length insertions at DefaultFPTarget, rounded up to a power of
// two with the MinFilterBits floor.
func StaticBudgetBits(length, residents int) uint64 {
	if residents < 0 {
		residents = 0
	}
	m, _ := bloom.OptimalParams(uint64(residents)*uint64(length), DefaultFPTarget)
	return ceilPow2(m)
}

// PartitionBudget resolves a plan's relative weights into absolute
// per-group geometries under a total bit budget. Allocation is in whole
// 64-bit words, deterministic (largest-remainder with index-order
// tie-break), every group floored at one word, and the result sums to
// exactly totalBits. An error means the budget cannot cover one word per
// group; the caller must stay on the static table.
func PartitionBudget(p *Plan, totalBits uint64) ([]GroupGeom, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if totalBits%64 != 0 {
		return nil, fmt.Errorf("index: budget %d bits is not word-aligned", totalBits)
	}
	words := totalBits / 64
	n := uint64(len(p.Groups))
	if words < n {
		return nil, fmt.Errorf("index: budget %d bits cannot cover %d groups at one word each", totalBits, n)
	}
	var sumW uint64
	for _, g := range p.Groups {
		sumW += uint64(g.Weight)
	}
	// One word each up front; the remainder is split by weight share.
	spare := words - n
	alloc := make([]uint64, len(p.Groups))
	remNum := make([]uint64, len(p.Groups))
	var given uint64
	for i, g := range p.Groups {
		share := spare * uint64(g.Weight)
		alloc[i] = 1 + share/sumW
		remNum[i] = share % sumW
		given += alloc[i]
	}
	// Hand the rounding leftover out by largest fractional remainder,
	// breaking ties toward lower indexes — fully deterministic.
	for given < words {
		best := -1
		for i, r := range remNum {
			if r == 0 {
				continue
			}
			if best < 0 || r > remNum[best] {
				best = i
			}
		}
		if best < 0 {
			best = 0
		}
		alloc[best]++
		remNum[best] = 0
		given++
	}
	geoms := make([]GroupGeom, len(p.Groups))
	for i, g := range p.Groups {
		geoms[i] = GroupGeom{Bits: alloc[i] * 64, Hashes: g.Hashes, Quantum: g.Quantum}
	}
	return geoms, nil
}

// FloorDiv is the plan's quantization bucket map: the bucket of value v at
// quantum q, rounding toward negative infinity. Exported so test harnesses
// and tooling can reproduce a digest's ground truth exactly; insertion and
// probing use the same function, which is what makes quantized probing a
// monotone (conservative) superset of the raw band.
func FloorDiv(v, q int64) int64 { return floorDiv(v, q) }

// floorDiv divides rounding toward negative infinity; q must be positive.
// Accumulated pattern values are signed, and the conservative band mapping
// needs monotone quantization across zero.
func floorDiv(v, q int64) int64 {
	d := v / q
	if v%q != 0 && v < 0 {
		d--
	}
	return d
}

// newAdaptive assembles the adaptive representation: the partitioned bit
// array, per-group offsets and per-group hash families.
func newAdaptive(length int, seed, epoch uint64, geoms []GroupGeom, words []uint64, inserted, residents uint64) (*Summary, error) {
	if length <= 0 {
		return nil, fmt.Errorf("index: summary pattern length %d, want > 0", length)
	}
	if epoch == 0 {
		return nil, fmt.Errorf("index: adaptive digest epoch 0 is reserved for static")
	}
	if len(geoms) != length {
		return nil, fmt.Errorf("index: %d group geometries for length %d", len(geoms), length)
	}
	var total uint64
	offsets := make([]uint64, len(geoms))
	families := make([]hash.Family, len(geoms))
	for i, g := range geoms {
		if g.Bits == 0 || g.Bits%64 != 0 {
			return nil, fmt.Errorf("index: group %d bits %d not a positive word multiple", i, g.Bits)
		}
		if g.Hashes == 0 || g.Hashes > MaxPlanHashes {
			return nil, fmt.Errorf("index: group %d hash count %d outside [1, %d]", i, g.Hashes, MaxPlanHashes)
		}
		if g.Quantum <= 0 || g.Quantum > MaxPlanQuantum {
			return nil, fmt.Errorf("index: group %d quantum %d outside [1, %d]", i, g.Quantum, MaxPlanQuantum)
		}
		offsets[i] = total
		total += g.Bits
		if total > 1<<34 {
			return nil, fmt.Errorf("index: adaptive digest exceeds %d bits", uint64(1)<<34)
		}
		families[i] = hash.NewFamily(seed, int(g.Hashes), g.Bits)
	}
	var set *bitset.Set
	var err error
	if words == nil {
		set = bitset.New(total)
	} else if set, err = bitset.FromWords(words, total); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Summary{
		length:    length,
		seed:      seed,
		residents: residents,
		planEpoch: epoch,
		geoms:     append([]GroupGeom(nil), geoms...),
		offsets:   offsets,
		families:  families,
		abits:     set,
		inserted:  inserted,
	}, nil
}

// BuildAdaptive constructs a station's routing digest under an adaptive
// plan, spending exactly the memory budget the static table would: the
// static sizing for len(locals) residents, partitioned by the plan's
// weights. The plan's length must match the patterns'; any shape that
// cannot be honored returns an error and the station falls back to Build.
func BuildAdaptive(p *Plan, length int, locals []pattern.Pattern) (*Summary, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Length != length {
		return nil, fmt.Errorf("index: plan length %d, station length %d", p.Length, length)
	}
	geoms, err := PartitionBudget(p, StaticBudgetBits(length, len(locals)))
	if err != nil {
		return nil, err
	}
	s, err := newAdaptive(length, p.Seed, p.Epoch, geoms, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	for _, l := range locals {
		if err := s.Add(l); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AdaptiveFromParts reconstructs a received adaptive digest (wire
// decoding): the geometry table plus the partitioned bit words.
func AdaptiveFromParts(length int, seed, epoch uint64, geoms []GroupGeom, words []uint64, inserted, residents uint64) (*Summary, error) {
	return newAdaptive(length, seed, epoch, geoms, words, inserted, residents)
}

// Adaptive reports whether the summary was built under an adaptive plan.
func (s *Summary) Adaptive() bool { return s.planEpoch != 0 }

// AdaptiveEpoch returns the parameter epoch the digest was built under, or
// zero for the static table.
func (s *Summary) AdaptiveEpoch() uint64 { return s.planEpoch }

// Geometry returns a copy of the per-group geometry table (nil for static
// summaries).
func (s *Summary) Geometry() []GroupGeom {
	if s.planEpoch == 0 {
		return nil
	}
	return append([]GroupGeom(nil), s.geoms...)
}

// addAdaptive inserts one resident's cells at quantized resolution.
func (s *Summary) addAdaptive(local pattern.Pattern) {
	var buf [MaxPlanHashes]uint64
	run := int64(0)
	for g, v := range local {
		run += v
		k := key(s.seed, g, floorDiv(run, s.geoms[g].Quantum))
		off := s.offsets[g]
		for _, idx := range s.families[g].Indexes(k, buf[:0]) {
			s.abits.Set(off + idx)
		}
		s.inserted++
	}
	s.residents++
}

// containsAdaptive probes one quantized cell of one group region.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) containsAdaptive(pos int, qv int64) bool {
	k := key(s.seed, pos, qv)
	off := s.offsets[pos]
	var buf [MaxPlanHashes]uint64
	for _, idx := range s.families[pos].Indexes(k, buf[:0]) {
		if !s.abits.Test(off + idx) {
			return false
		}
	}
	return true
}
