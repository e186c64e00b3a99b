// Package index implements the coordinator's summary-routing layer: a
// compact per-station Bloom summary of the station's resident patterns,
// probed at the data center to decide which stations a search batch must
// fan out to at all.
//
// The idea follows Bloofi (Crainiceanu & Lemire): keep a hierarchy of Bloom
// summaries above the stores so a membership query visits only the servers
// that might hold a match. Here the hierarchy is one level deep — one
// summary per station, cached at the coordinator — and the "membership"
// being summarized is the set of discriminative cells of the station's
// residents: every (position, accumulated value) pair of every resident
// pattern. A query combination can only be matched by a resident whose
// accumulated value sits inside the combination's ε band at every sampled
// position, so a station whose summary shows no resident value inside the
// band at even one sampled position cannot contribute a within-band report
// and may be skipped.
//
// The summary is a plain Bloom filter, so it has false positives (a pruned
// fan-out may still visit a station that reports nothing — a wasted probe)
// but no false negatives: a station holding a resident inside every band is
// always admitted. Routing therefore never loses a true match; see
// docs/OPERATIONS.md for the operator's view of the trade.
package index

import (
	"errors"
	"fmt"

	"dimatch/internal/bitset"
	"dimatch/internal/bloom"
	"dimatch/internal/core"
	"dimatch/internal/hash"
	"dimatch/internal/pattern"
)

// DefaultSeed fixes the summary key space. Every station and the
// coordinator must hash identically; the seed travels in the summary reply,
// so a deployment could vary it per station, but the stock stations all use
// this value.
const DefaultSeed = 0x51a7e5bf0c3d9a71

// DefaultFPTarget sizes a summary's filter: roughly one false admit per
// hundred probed bands. Larger stations pay proportionally more bits
// (OptimalParams is linear in insertions), keeping the false-route rate
// flat as stores grow.
const DefaultFPTarget = 0.01

// MaxProbeValues bounds the total number of membership probes one query's
// admission test may cost (every combination, every sampled position, every
// value in the ε band). A query whose bands are wider than the budget —
// huge ε against a long series — is treated as admitting every station:
// routing degrades to full fan-out rather than burning coordinator CPU.
const MaxProbeValues = 1 << 16

// saltConst spreads position salts across the key space (an odd 64-bit
// multiplier, the same construction core's position-salted keyer uses).
const saltConst = 0x8f3c9d1b5a7e42d1

// positionSalt derives the key-space salt of one pattern position.
func positionSalt(seed uint64, pos int) uint64 {
	return hash.Mix64(seed ^ (uint64(pos+1) * saltConst))
}

// key maps a (position, accumulated value) cell to the hashed element. Every
// position gets its own key space, so a value observed at hour 3 never
// satisfies a probe for hour 7.
func key(seed uint64, pos int, value int64) int64 {
	return int64(hash.Mix64(uint64(value)) ^ positionSalt(seed, pos))
}

// Summary is one station's routing summary: a Bloom filter containing the
// cell (g, acc[g]) of every resident pattern at every position g, where acc
// is the resident's accumulated (prefix-sum) form. Covering every position —
// not a fixed sample subset — is what keeps admission sound for any
// per-search sample count: whatever positions a search samples, the summary
// has the residents' values there.
//
// A Summary is immutable from the coordinator's point of view once shared:
// delta updates go through Clone + Add so concurrent probers never observe a
// half-written filter.
type Summary struct {
	length    int
	seed      uint64
	residents uint64
	filter    *bloom.Filter

	// Adaptive representation (see adaptive.go): when planEpoch is nonzero
	// the summary is a partitioned bit array — one region per pattern
	// position with its own geometry — and filter is nil.
	planEpoch uint64
	geoms     []GroupGeom
	offsets   []uint64
	families  []hash.Family
	abits     *bitset.Set
	inserted  uint64
}

// New returns an empty summary for patterns of the given length, sized for
// expectedResidents patterns at the false-positive target (DefaultFPTarget
// when fpTarget <= 0).
func New(length, expectedResidents int, fpTarget float64, seed uint64) (*Summary, error) {
	if length <= 0 {
		return nil, fmt.Errorf("index: summary pattern length %d, want > 0", length)
	}
	if fpTarget <= 0 {
		fpTarget = DefaultFPTarget
	}
	if expectedResidents < 0 {
		expectedResidents = 0
	}
	m, k := bloom.OptimalParams(uint64(expectedResidents)*uint64(length), fpTarget)
	f, err := bloom.New(ceilPow2(m), k, seed)
	if err != nil {
		return nil, err
	}
	return &Summary{length: length, seed: seed, filter: f}, nil
}

// MinFilterBits floors every summary's filter length: 64 bits keeps the
// smallest summary word-aligned, which the fold/expand union arithmetic
// (Absorb) depends on.
const MinFilterBits = 64

// ceilPow2 rounds m up to the next power of two, at least MinFilterBits.
// Power-of-two lengths cost at most 2x the optimal bit count (so the
// false-admit rate only drops) and buy the union property: with the
// double-hashed position sequence (h1 + i*h2) mod m, a filter folds onto any
// smaller power-of-two geometry and expands onto any larger one without
// losing an element — the basis of the Bloofi-style digest tree in
// index/tree.
func ceilPow2(m uint64) uint64 {
	p := uint64(MinFilterBits)
	for p < m {
		p <<= 1
	}
	return p
}

// isPow2 reports whether m is a power of two.
func isPow2(m uint64) bool { return m != 0 && m&(m-1) == 0 }

// NewUnion returns an empty union summary with explicit power-of-two
// geometry, the inner-node shape of the digest tree. bits is rounded up to
// a power of two (minimum MinFilterBits); hashes must be positive.
func NewUnion(length int, seed uint64, bits uint64, hashes int) (*Summary, error) {
	if length <= 0 {
		return nil, fmt.Errorf("index: union pattern length %d, want > 0", length)
	}
	f, err := bloom.New(ceilPow2(bits), hashes, seed)
	if err != nil {
		return nil, err
	}
	return &Summary{length: length, seed: seed, filter: f}, nil
}

// Unionable reports whether child can be conservatively absorbed into s:
// same key space (seed and pattern length), power-of-two geometries on both
// sides so the fold/expand arithmetic applies, and a child hash count no
// smaller than s's — s probes its own k positions, and each of those is
// among the k' >= k positions the child set per element. Adaptive digests
// (per-group partitioned key spaces) never union: their positions do not
// fold onto a flat geometry, so callers must keep them on the flat probe
// path.
func (s *Summary) Unionable(child *Summary) bool {
	return child != nil &&
		s.planEpoch == 0 && child.planEpoch == 0 &&
		s.seed == child.seed &&
		s.length == child.length &&
		isPow2(s.filter.M()) && isPow2(child.filter.M()) &&
		child.filter.K() >= s.filter.K()
}

// Absorb ORs child into s (fold or expand, depending on which geometry is
// larger) and accounts its residents. After a successful Absorb, every probe
// the child admits is admitted by s too — the union is strictly
// conservative. Children that fail Unionable are rejected; the caller must
// leave their station un-pruned instead.
func (s *Summary) Absorb(child *Summary) error {
	if !s.Unionable(child) {
		return fmt.Errorf("index: cannot union summaries (seed/length/geometry mismatch)")
	}
	if err := s.filter.AbsorbFold(child.filter); err != nil {
		return err
	}
	s.residents += child.residents
	return nil
}

// Saturated returns a minimal summary that admits every selective probe: all
// bits set, one accounted insertion. A region coordinator answers a summary
// pull with it when it cannot assemble a sound aggregate digest (a station
// refresh failed mid-build), so the tier above keeps visiting the subtree —
// the conservative fallback required at every tier.
func Saturated(length int, seed uint64) *Summary {
	words := []uint64{^uint64(0)}
	f, err := bloom.FromParts(words, 64, 1, seed, 1)
	if err != nil {
		panic(fmt.Sprintf("index: saturated summary: %v", err))
	}
	return &Summary{length: length, seed: seed, residents: 1, filter: f}
}

// Build constructs a summary over a station's resident patterns with the
// default seed and false-positive target — what a station does to answer a
// summary request.
func Build(length int, locals []pattern.Pattern) (*Summary, error) {
	s, err := New(length, len(locals), DefaultFPTarget, DefaultSeed)
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

// Add inserts one resident pattern's cells. Adding beyond the sizing
// estimate only raises the false-admit rate (wasted probes), never causes a
// false prune.
func (s *Summary) Add(local pattern.Pattern) error {
	if len(local) != s.length {
		return fmt.Errorf("index: pattern length %d, summary wants %d", len(local), s.length)
	}
	if s.planEpoch != 0 {
		s.addAdaptive(local)
		return nil
	}
	run := int64(0)
	for g, v := range local {
		run += v
		s.filter.Add(key(s.seed, g, run))
	}
	s.residents++
	return nil
}

// Clone returns an independent deep copy, the basis of copy-on-write delta
// updates at the coordinator.
func (s *Summary) Clone() *Summary {
	if s.planEpoch != 0 {
		// The geometry tables are immutable once built and safe to share;
		// only the bit storage needs copying.
		return &Summary{
			length:    s.length,
			seed:      s.seed,
			residents: s.residents,
			planEpoch: s.planEpoch,
			geoms:     s.geoms,
			offsets:   s.offsets,
			families:  s.families,
			abits:     s.abits.Clone(),
			inserted:  s.inserted,
		}
	}
	words := append([]uint64(nil), s.filter.Words()...)
	f, err := bloom.FromParts(words, s.filter.M(), s.filter.K(), s.seed, s.filter.N())
	if err != nil {
		// The parts come from a valid filter; reconstruction cannot fail.
		panic(fmt.Sprintf("index: clone of valid summary failed: %v", err))
	}
	return &Summary{length: s.length, seed: s.seed, residents: s.residents, filter: f}
}

// contains probes one cell.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) contains(pos int, value int64) bool {
	return s.filter.Contains(key(s.seed, pos, value))
}

// bandAdmit reports whether the digest has a summarized cell inside the
// band [lo, hi] at the given position. Adaptive digests probe at the
// group's quantized resolution: floor division is monotone, so the
// quantized range is a superset of the band's inserted keys — the
// conservative direction — and costs width/q lookups.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) bandAdmit(pos int, lo, hi int64) bool {
	if s.planEpoch != 0 {
		q := s.geoms[pos].Quantum
		for qv := floorDiv(lo, q); qv <= floorDiv(hi, q); qv++ {
			if s.containsAdaptive(pos, qv) {
				return true
			}
		}
		return false
	}
	for v := lo; v <= hi; v++ {
		if s.contains(pos, v) {
			return true
		}
	}
	return false
}

// BandAdmit is the exported per-band admission primitive behind Admits:
// whether the digest would admit the single band [lo, hi] at pos. Bench and
// statistical harnesses measure per-band false-admission rates with it;
// positions outside the digest's geometry admit (never prune on
// incomparable cells), and an empty digest admits nothing.
func (s *Summary) BandAdmit(pos int, lo, hi int64) bool {
	if pos < 0 || pos >= s.length {
		return true
	}
	if s.Inserted() == 0 {
		return false
	}
	return s.bandAdmit(pos, lo, hi)
}

// Length returns the pattern length the summary covers.
func (s *Summary) Length() int { return s.length }

// Seed returns the summary's key-space seed.
func (s *Summary) Seed() uint64 { return s.seed }

// Residents returns the number of patterns added.
func (s *Summary) Residents() uint64 { return s.residents }

// Bits returns the filter length in bits (the total across group regions
// for an adaptive digest).
func (s *Summary) Bits() uint64 {
	if s.planEpoch != 0 {
		return s.abits.Len()
	}
	return s.filter.M()
}

// Hashes returns the filter's hash count. An adaptive digest has one hash
// count per group, not a single figure; it reports 0 here and exposes the
// per-group table through Geometry.
func (s *Summary) Hashes() int {
	if s.planEpoch != 0 {
		return 0
	}
	return s.filter.K()
}

// Inserted returns the number of cell insertions performed.
func (s *Summary) Inserted() uint64 {
	if s.planEpoch != 0 {
		return s.inserted
	}
	return s.filter.N()
}

// Words exposes the filter's bit storage for serialization.
func (s *Summary) Words() []uint64 {
	if s.planEpoch != 0 {
		return s.abits.Words()
	}
	return s.filter.Words()
}

// SizeBytes returns the summary's in-memory footprint — the figure an
// operator weighs against the raw store when sizing the false-route rate
// (docs/OPERATIONS.md).
func (s *Summary) SizeBytes() uint64 {
	if s.planEpoch != 0 {
		return s.abits.SizeBytes()
	}
	return s.filter.SizeBytes()
}

// FromParts reconstructs a received summary (wire decoding).
func FromParts(length int, seed uint64, words []uint64, bits uint64, hashes int, inserted, residents uint64) (*Summary, error) {
	if length <= 0 {
		return nil, fmt.Errorf("index: summary pattern length %d, want > 0", length)
	}
	f, err := bloom.FromParts(words, bits, hashes, seed, inserted)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Summary{length: length, seed: seed, residents: residents, filter: f}, nil
}

// band is one admission condition: some resident value in [lo, hi] must
// exist at position pos.
type band struct {
	pos    int
	lo, hi int64
}

// Probe is the precomputed admission test of one query: the sampled ε bands
// of every non-zero-weight combination of the query's locals. It is built
// once per search and shared across every station's summary, so the
// combination enumeration is not repeated per station.
type Probe struct {
	// combos holds one band list per combination; a summary admits the
	// query if any combination has a resident-value hit in every band.
	combos [][]band
	// selective is false when the probe budget was exceeded (or the query
	// has nothing usable): Admits then always reports true and the query
	// cannot prune anything.
	selective bool
}

// errOverBudget stops NewProbe's combination walk; it never leaves the
// package.
var errOverBudget = errors.New("index: probe over budget")

// NewProbe builds a query's admission test for the given per-search sample
// count and tolerance ε. Bands use the scaled (per-position) widening
// ε·(g+1) — the accumulated-domain superset of the per-interval Eq. 2
// tolerance — so the test admits every station that could report the query
// under either tolerance mode. A probe whose total band volume exceeds
// MaxProbeValues is returned unselective rather than failing the search.
func NewProbe(q core.Query, samples int, eps int64) (Probe, error) {
	if err := q.Validate(); err != nil {
		return Probe{}, err
	}
	if samples <= 0 {
		samples = core.DefaultSamples
	}
	if eps < 0 {
		return Probe{}, fmt.Errorf("index: negative epsilon %d", eps)
	}
	positions, err := pattern.SampleIndexes(q.Length(), samples)
	if err != nil {
		return Probe{}, err
	}
	var p Probe
	budget := int64(MaxProbeValues)
	err = q.EachCombination(func(_ pattern.Subset, _ int64, combined pattern.Pattern) error {
		acc := combined.Accumulate()
		bands := make([]band, len(positions))
		for i, g := range positions {
			tol := eps * int64(g+1)
			bands[i] = band{pos: g, lo: acc[g] - tol, hi: acc[g] + tol}
			budget -= 2*tol + 1
			if budget < 0 {
				return errOverBudget
			}
		}
		p.combos = append(p.combos, bands)
		return nil
	})
	if errors.Is(err, errOverBudget) {
		return Probe{}, nil // unselective
	}
	if err != nil {
		return Probe{}, err
	}
	if len(p.combos) == 0 {
		return Probe{}, nil // nothing usable: unselective
	}
	p.selective = true
	return p, nil
}

// Selective reports whether the probe can prune at all.
func (p Probe) Selective() bool { return p.selective }

// EachBand visits every (position, band) of the probe's combinations — the
// coordinator's traffic profiler consumes this to fold a search's observed
// band volume into the adaptive parameter solver. An unselective probe has
// no bands to visit.
func (p Probe) EachBand(f func(pos int, lo, hi int64)) {
	for _, bands := range p.combos {
		for _, b := range bands {
			f(b.pos, b.lo, b.hi)
		}
	}
}

// Admits reports whether the summary's station might hold a resident
// matching the probed query: some combination must have a summarized cell
// inside its band at every sampled position. An unselective probe (over
// budget) always admits; so does a summary built for a shorter pattern
// length, since its cells are incomparable and pruning on them would be
// unsound.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) Admits(p Probe) bool {
	if !p.selective {
		return true
	}
	if s.Inserted() == 0 {
		// Nothing was ever summarized: the station holds no residents and
		// cannot report, whatever the geometry.
		return false
	}
combos:
	for _, bands := range p.combos {
		for _, b := range bands {
			if b.pos >= s.length {
				return true // incomparable geometry: never prune on it
			}
			if !s.bandAdmit(b.pos, b.lo, b.hi) {
				continue combos
			}
		}
		return true
	}
	return false
}
