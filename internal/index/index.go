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
// residents: the (position, accumulated value) pair of every resident
// pattern at each sampled position g — pattern.SampleIndexes(length,
// core.DefaultSamples), the positions a default search compares at (the
// paper's b = 12). A query combination can only be matched by a resident
// whose accumulated value sits inside the combination's ε band at every
// sampled position, so a station whose summary shows no resident value
// inside the band at even one covered position cannot contribute a
// within-band report and may be skipped. A band at a position the summary
// does not cover (a search with another sample count) counts as a hit: it
// can never prune, so routing stays sound for any sample count and prunes on
// the covered subset.
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

// cellHash is the one hash of a (position, accumulated value) cell, given
// the position's salt: every position gets its own key space, so a value
// observed at hour 3 never satisfies a probe for hour 7. The filter steps
// all k probes from it (bloom.Filter.AddHash).
func cellHash(salt uint64, value int64) uint64 {
	return hash.Mix64(uint64(value) ^ salt)
}

// Summary is one station's routing summary: a Bloom filter containing the
// cell (g, acc[g]) of every resident pattern at every covered position g,
// where acc is the resident's accumulated (prefix-sum) form. The covered
// positions are pattern.SampleIndexes(length, core.DefaultSamples), a pure
// function of the length, so station and coordinator agree on them without a
// wire field; a search sampling other positions is admitted on
// those (Admits).
//
// A Summary does no locking. Once the coordinator caches one, it is mutated
// (Add, one ingest's rows at a time) only under the cache's write lock and
// probed (Admits) only under its read lock, so a concurrent prober never
// observes a half-applied ingest.
type Summary struct {
	length int
	seed   uint64
	filter *bloom.Filter
	// covered counts the covered positions; pos[:covered] are they,
	// ascending, and salt[i] is pos[i]'s key-space salt. The arrays are
	// fixed at core.DefaultSamples, whatever length a wire reply declares.
	covered int
	pos     [core.DefaultSamples]int
	salt    [core.DefaultSamples]uint64
}

// newSummary wraps a filter as a summary of the given (positive) length,
// deriving the covered positions and their salts.
func newSummary(length int, seed uint64, f *bloom.Filter) (*Summary, error) {
	positions, err := pattern.SampleIndexes(length, core.DefaultSamples)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	s := &Summary{length: length, seed: seed, filter: f, covered: len(positions)}
	for i, g := range positions {
		s.pos[i] = g
		s.salt[i] = hash.PositionSalt(seed, g)
	}
	return s, nil
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
	// A summary of r residents holds r·min(length, DefaultSamples) cells.
	covered := min(length, core.DefaultSamples)
	m, k := bloom.OptimalParams(uint64(expectedResidents)*uint64(covered), fpTarget)
	f, err := bloom.New(ceilPow2(m), k, seed)
	if err != nil {
		return nil, err
	}
	return newSummary(length, seed, f)
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
	return newSummary(length, seed, f)
}

// Unionable reports whether child can be conservatively absorbed into s:
// same key space (seed and pattern length), power-of-two geometries on both
// sides so the fold/expand arithmetic applies, and a child hash count no
// smaller than s's — s probes its own k positions, and each of those is
// among the k' >= k positions the child set per element.
func (s *Summary) Unionable(child *Summary) bool {
	return child != nil &&
		s.seed == child.seed &&
		s.length == child.length &&
		isPow2(s.filter.M()) && isPow2(child.filter.M()) &&
		child.filter.K() >= s.filter.K()
}

// Absorb ORs child into s (fold or expand, depending on which geometry is
// larger). After a successful Absorb, every probe the child admits is
// admitted by s too — the union is strictly conservative. Children that
// fail Unionable are rejected; the caller must leave their station
// un-pruned instead.
func (s *Summary) Absorb(child *Summary) error {
	if !s.Unionable(child) {
		return fmt.Errorf("index: cannot union summaries (seed/length/geometry mismatch)")
	}
	return s.filter.AbsorbFold(child.filter)
}

// Build constructs a summary over a station's resident patterns with the
// default seed and false-positive target — what a station does to answer a
// summary request. The rows may be of either cell type: a station digests
// its int32 store, and the digest of equal values is byte-identical either
// way, since cells are accumulated in int64.
func Build[R pattern.Row[C], C pattern.Cell](length int, locals []R) (*Summary, error) {
	s, err := New(length, len(locals), DefaultFPTarget, DefaultSeed)
	if err != nil {
		return nil, err
	}
	for _, l := range locals {
		if err := addRow(s, l); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add inserts one resident pattern's cells at the covered positions, one
// hash each. Adding beyond the sizing estimate only raises the false-admit
// rate (wasted probes), never causes a false prune.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) Add(local pattern.Pattern) error { return addRow(s, local) }

// addRow is Add on a row of any cell type.
func addRow[R pattern.Row[C], C pattern.Cell](s *Summary, local R) error {
	if len(local) != s.length {
		return fmt.Errorf("index: pattern length %d, summary wants %d", len(local), s.length)
	}
	run, g := int64(0), 0
	for i, p := range s.pos[:s.covered] {
		for ; g <= p; g++ {
			run += int64(local[g])
		}
		s.filter.AddHash(cellHash(s.salt[i], run))
	}
	return nil
}

// contains probes the cell (pos[i], value) of the i-th covered position.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) contains(i int, value int64) bool {
	return s.filter.ContainsHash(cellHash(s.salt[i], value))
}

// bandAdmit reports whether the digest has a summarized cell inside the
// band [lo, hi] at the i-th covered position.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Summary) bandAdmit(i int, lo, hi int64) bool {
	for v := lo; v <= hi; v++ {
		if s.contains(i, v) {
			return true
		}
	}
	return false
}

// Length returns the pattern length the summary covers.
func (s *Summary) Length() int { return s.length }

// Seed returns the summary's key-space seed.
func (s *Summary) Seed() uint64 { return s.seed }

// Bits returns the filter length in bits.
func (s *Summary) Bits() uint64 { return s.filter.M() }

// Hashes returns the filter's hash count.
func (s *Summary) Hashes() int { return s.filter.K() }

// Inserted returns the number of cell insertions performed.
func (s *Summary) Inserted() uint64 { return s.filter.N() }

// Words exposes the filter's bit storage for serialization: a read-only view
// of the summary's own words, not a copy. Do not modify it, and do not keep
// it past the summary's next Add or Absorb.
func (s *Summary) Words() []uint64 { return s.filter.Words() }

// SizeBytes returns the summary's in-memory footprint — the figure an
// operator weighs against the raw store when sizing the false-route rate
// (docs/OPERATIONS.md).
func (s *Summary) SizeBytes() uint64 { return s.filter.SizeBytes() }

// FromParts reconstructs a received summary (wire decoding). The summary
// adopts words (bitset.FromWords): the caller must not touch the slice
// afterwards, and the wire decoder hands over the slice it just read.
func FromParts(length int, seed uint64, words []uint64, bits uint64, hashes int, inserted uint64) (*Summary, error) {
	if length <= 0 {
		return nil, fmt.Errorf("index: summary pattern length %d, want > 0", length)
	}
	f, err := bloom.FromParts(words, bits, hashes, seed, inserted)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return newSummary(length, seed, f)
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
// count and tolerance ε. Each band is ±core.Band(ε, g) around the
// accumulated value, the encoder's band before its clip at zero, so the
// test admits every station that could report the query. A probe whose
// total band volume exceeds MaxProbeValues is returned unselective rather
// than failing the search.
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
			tol := core.Band(eps, g)
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

// Admits reports whether the summary's station might hold a resident
// matching the probed query: some combination must have a summarized cell
// inside its band at every sampled position the summary covers. A band at a
// position it does not cover counts as a hit, so a search with another
// sample count prunes on the covered subset and never on the rest. An
// unselective probe (over budget) always admits; so does a summary built
// for a shorter pattern length, since its cells are incomparable and
// pruning on them would be unsound.
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
		i := 0 // bands ascend by position, so one cursor finds each slot
		for _, b := range bands {
			if b.pos >= s.length {
				return true // incomparable geometry: never prune on it
			}
			for i < s.covered && s.pos[i] < b.pos {
				i++
			}
			if i == s.covered || s.pos[i] != b.pos {
				continue // uncovered position: no cell to test, a hit
			}
			if !s.bandAdmit(i, b.lo, b.hi) {
				continue combos
			}
		}
		return true
	}
	return false
}
