// Package tree arranges per-station routing summaries into a Bloofi-style
// B-tree (Crainiceanu & Lemire, "Bloofi: Multidimensional Bloom Filters").
//
// No search uses it. The coordinator plans with one flat scan of its cached
// digests, which measured faster, cheaper in probes and smaller in state at
// 64 and at 1 024 stations (BenchmarkPlanScanVsTree, docs/ROUTING.md "Why
// there is one planner"). The package is kept only because the frozen
// benchmark/ directory links New, Add and Route for its tree.plan_us layer
// reading; it goes, with the union helpers only it calls, when that reading
// does.
//
// Leaves are the stations' Bloom digests exactly as the flat summary cache
// holds them; every inner node is the bitwise-OR union of its children,
// folded onto a bounded power-of-two geometry (index.Summary.Absorb). A
// selective query descends from the root and visits only the subtrees whose
// union admits a possible match.
//
// Pruning soundness is inherited from the union property: a child's every
// set position maps into its parent's geometry, so if any station in a
// subtree admits a probe, the subtree's union admits it too. The tree can
// therefore only over-visit (union false positives), never skip a station
// the flat scan would have visited.
//
// Add/Remove restructure the B-tree and rebuild the unions on the one root
// path they touched (plus a split/collapse sibling), leaving every other
// subtree untouched. The tree is not safe for concurrent use.
package tree

import (
	"fmt"

	"dimatch/internal/index"
)

// DefaultFanout bounds the children per inner node when Options.Fanout is
// zero. Eight keeps the tree shallow (1024 stations in four levels) while
// each descent step stays a handful of filter probes.
const DefaultFanout = 8

// DefaultMaxUnionBits caps an inner node's filter length (bits). Unions
// near the root summarize unboundedly many stations; capping their geometry
// keeps per-coordinator routing state sublinear in the fleet size at the
// cost of a higher false-admit rate high in the tree — which only costs
// extra descent, never a wrong prune. 32 Kibit = 4 KiB per node.
const DefaultMaxUnionBits = 1 << 15

// Options configures a Tree.
type Options struct {
	// Fanout is the maximum number of children per inner node (minimum 2;
	// DefaultFanout when zero).
	Fanout int
	// MaxUnionBits caps inner-node filter lengths (DefaultMaxUnionBits when
	// zero; rounded up to a power of two, minimum index.MinFilterBits).
	MaxUnionBits uint64
}

func (o Options) withDefaults() Options {
	if o.Fanout == 0 {
		o.Fanout = DefaultFanout
	}
	if o.Fanout < 2 {
		o.Fanout = 2
	}
	if o.MaxUnionBits == 0 {
		o.MaxUnionBits = DefaultMaxUnionBits
	}
	if o.MaxUnionBits < index.MinFilterBits {
		o.MaxUnionBits = index.MinFilterBits
	}
	return o
}

// node is one tree node: a leaf carries a station's digest, an inner node
// the union of its children. Children are kept sorted by station-id range
// and every leaf sits at the same depth (classic B-tree shape).
type node struct {
	leaf     bool
	station  uint32
	sum      *index.Summary
	children []*node
	min, max uint32
}

// Tree is the Bloofi-style digest tree. The zero value is not usable;
// construct with New.
type Tree struct {
	opts Options
	root *node
	size int
}

// New returns an empty tree.
func New(opts Options) *Tree {
	return &Tree{opts: opts.withDefaults()}
}

// Len returns the number of stations in the tree.
func (t *Tree) Len() int { return t.size }

// Has reports whether the station is tracked.
func (t *Tree) Has(station uint32) bool {
	return t.find(station) != nil
}

func (t *Tree) find(station uint32) *node {
	n := t.root
	for n != nil && !n.leaf {
		var next *node
		for _, c := range n.children {
			if station >= c.min && station <= c.max {
				next = c
				break
			}
		}
		n = next
	}
	if n != nil && n.leaf && n.station == station {
		return n
	}
	return nil
}

// Add inserts (or replaces) a station's digest. The digest must be
// unionable with the tree's existing members — same seed and pattern
// length, power-of-two filter geometry — or an error is returned and the
// tree is left unchanged; the caller must then keep the station outside the
// tree and never prune it.
func (t *Tree) Add(station uint32, sum *index.Summary) error {
	if sum == nil {
		return fmt.Errorf("tree: nil summary for station %d", station)
	}
	probe, err := index.NewUnion(sum.Length(), sum.Seed(), index.MinFilterBits, 1)
	if err != nil {
		return fmt.Errorf("tree: station %d digest unusable: %w", station, err)
	}
	if !probe.Unionable(sum) {
		return fmt.Errorf("tree: station %d digest geometry is not unionable (need power-of-two bits)", station)
	}
	if t.root != nil {
		ref := t.anyLeaf(t.root)
		if ref != nil && (ref.sum.Seed() != sum.Seed() || ref.sum.Length() != sum.Length()) {
			return fmt.Errorf("tree: station %d digest key space differs from the tree's", station)
		}
	}
	t.Remove(station)
	leaf := &node{leaf: true, station: station, sum: sum, min: station, max: station}
	if t.root == nil {
		t.root = &node{children: []*node{leaf}}
		t.refresh(t.root)
		t.size = 1
		return nil
	}
	path := t.descendToLeafParent(station)
	parent := path[len(path)-1]
	insertChild(parent, leaf)
	t.size++
	// Split overfull nodes bottom-up, then refresh unions and ranges along
	// the whole touched path.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.children) > t.opts.Fanout {
			left, right := t.split(n)
			if i == 0 {
				t.root = &node{children: []*node{left, right}}
				t.refresh(t.root)
				return nil
			}
			p := path[i-1]
			replaceChild(p, n, left, right)
		} else {
			t.refresh(n)
		}
	}
	return nil
}

// anyLeaf returns some leaf under n, for key-space reference.
func (t *Tree) anyLeaf(n *node) *node {
	for !n.leaf {
		if len(n.children) == 0 {
			return nil
		}
		n = n.children[0]
	}
	return n
}

// descendToLeafParent walks from the root to the inner node whose children
// are leaves and whose range should receive station, returning the path
// (root first).
func (t *Tree) descendToLeafParent(station uint32) []*node {
	path := []*node{t.root}
	n := t.root
	for {
		if len(n.children) == 0 || n.children[0].leaf {
			return path
		}
		next := n.children[len(n.children)-1]
		for _, c := range n.children {
			if station <= c.max || c == n.children[len(n.children)-1] {
				next = c
				break
			}
		}
		path = append(path, next)
		n = next
	}
}

// insertChild places c into n.children in station-id order.
func insertChild(n *node, c *node) {
	at := len(n.children)
	for i, ch := range n.children {
		if c.min < ch.min {
			at = i
			break
		}
	}
	n.children = append(n.children, nil)
	copy(n.children[at+1:], n.children[at:])
	n.children[at] = c
}

// replaceChild swaps old for the two split halves in p's child list.
func replaceChild(p *node, old, left, right *node) {
	for i, c := range p.children {
		if c == old {
			p.children = append(p.children, nil)
			copy(p.children[i+2:], p.children[i+1:])
			p.children[i] = left
			p.children[i+1] = right
			return
		}
	}
}

// split divides an overfull node into two halves with fresh unions.
func (t *Tree) split(n *node) (left, right *node) {
	mid := len(n.children) / 2
	left = &node{children: append([]*node(nil), n.children[:mid]...)}
	right = &node{children: append([]*node(nil), n.children[mid:]...)}
	t.refresh(left)
	t.refresh(right)
	return left, right
}

// refresh rebuilds n's union and id range from its current children — the
// "rebuild only the affected subtree" step of every structural change.
func (t *Tree) refresh(n *node) {
	if n.leaf || len(n.children) == 0 {
		return
	}
	n.min, n.max = n.children[0].min, n.children[0].max
	var bits uint64
	hashes := 0
	for _, c := range n.children {
		if c.min < n.min {
			n.min = c.min
		}
		if c.max > n.max {
			n.max = c.max
		}
		bits += c.sum.Bits()
		if hashes == 0 || c.sum.Hashes() < hashes {
			hashes = c.sum.Hashes()
		}
	}
	if bits > t.opts.MaxUnionBits {
		bits = t.opts.MaxUnionBits
	}
	ref := n.children[0].sum
	u, err := index.NewUnion(ref.Length(), ref.Seed(), bits, hashes)
	if err != nil {
		panic(fmt.Sprintf("tree: union geometry invalid: %v", err))
	}
	for _, c := range n.children {
		if err := u.Absorb(c.sum); err != nil {
			// Members are admission-checked in Add, and unions of unionable
			// children stay unionable; an absorb failure is a bug.
			panic(fmt.Sprintf("tree: absorb of admitted member failed: %v", err))
		}
	}
	n.sum = u
}

// Remove deletes a station, collapsing emptied inner nodes and rebuilding
// the unions on the touched root path. Removing an absent station is a
// no-op.
func (t *Tree) Remove(station uint32) {
	if t.root == nil {
		return
	}
	if !t.remove(t.root, station) {
		return
	}
	t.size--
	if len(t.root.children) == 0 {
		t.root = nil
		return
	}
	// Shrink height while the root has a single inner child.
	for len(t.root.children) == 1 && !t.root.children[0].leaf {
		t.root = t.root.children[0]
	}
}

// remove deletes the leaf under n, refreshing unions on the way out. It
// returns whether the leaf was found.
func (t *Tree) remove(n *node, station uint32) bool {
	for i, c := range n.children {
		if station < c.min || station > c.max {
			continue
		}
		if c.leaf {
			if c.station != station {
				continue
			}
			n.children = append(n.children[:i], n.children[i+1:]...)
			t.refresh(n)
			return true
		}
		if !t.remove(c, station) {
			continue
		}
		if len(c.children) == 0 {
			n.children = append(n.children[:i], n.children[i+1:]...)
		}
		t.refresh(n)
		return true
	}
	return false
}

// Route descends the tree with one search's probes and returns the
// admitted stations plus the number of Admits evaluations performed. A subtree is skipped
// only when its union denies every probe; an unselective probe admits
// everything, exactly as in the flat scan.
func (t *Tree) Route(probes []index.Probe) (admitted []uint32, evaluated int) {
	if t.root == nil {
		return nil, 0
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.sum != nil {
			hit := false
			for _, p := range probes {
				evaluated++
				if n.sum.Admits(p) {
					hit = true
					break
				}
			}
			if !hit {
				return
			}
		}
		if n.leaf {
			admitted = append(admitted, n.station)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return admitted, evaluated
}

// UnionBytes returns the memory held by inner-node unions — the tree's
// routing-state overhead beyond the cached leaf digests.
func (t *Tree) UnionBytes() uint64 {
	var total uint64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			return
		}
		if n.sum != nil {
			total += n.sum.SizeBytes()
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return total
}

// Nodes returns the inner-node and leaf counts, for introspection and
// tests.
func (t *Tree) Nodes() (inner, leaves int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			leaves++
			return
		}
		inner++
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return inner, leaves
}
