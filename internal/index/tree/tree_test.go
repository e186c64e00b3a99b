package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
)

const testLength = 8

// buildSummary makes a station digest over the given residents.
func buildSummary(t *testing.T, locals []pattern.Pattern) *index.Summary {
	t.Helper()
	s, err := index.Build(testLength, locals)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

func randPattern(rng *rand.Rand) pattern.Pattern {
	p := make(pattern.Pattern, testLength)
	for i := range p {
		p[i] = int64(rng.Intn(40))
	}
	return p
}

func probeFor(t *testing.T, locals []pattern.Pattern, eps int64) index.Probe {
	t.Helper()
	q := core.Query{ID: 1, Locals: locals}
	p, err := index.NewProbe(q, testLength, eps)
	if err != nil {
		t.Fatalf("NewProbe: %v", err)
	}
	return p
}

// flatAdmitted is the reference: probe every station digest directly.
func flatAdmitted(sums map[uint32]*index.Summary, probes []index.Probe) map[uint32]bool {
	out := make(map[uint32]bool)
	for id, s := range sums {
		for _, p := range probes {
			if s.Admits(p) {
				out[id] = true
				break
			}
		}
	}
	return out
}

// TestTreeNeverPrunesFlatAdmitted is the soundness pin: any station the flat
// scan admits must be admitted by the tree descent, across random
// membership, fanouts, and union caps.
func TestTreeNeverPrunesFlatAdmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, fanout := range []int{2, 3, 8} {
		for _, cap := range []uint64{64, 1 << 10, 1 << 15} {
			tr := New(Options{Fanout: fanout, MaxUnionBits: cap})
			sums := make(map[uint32]*index.Summary)
			for id := uint32(0); id < 60; id++ {
				locals := []pattern.Pattern{randPattern(rng), randPattern(rng)}
				s := buildSummary(t, locals)
				sums[id] = s
				if err := tr.Add(id, s); err != nil {
					t.Fatalf("Add(%d): %v", id, err)
				}
			}
			for trial := 0; trial < 30; trial++ {
				probe := probeFor(t, []pattern.Pattern{randPattern(rng)}, int64(trial%3))
				want := flatAdmitted(sums, []index.Probe{probe})
				got, evaluated := tr.Route([]index.Probe{probe})
				if evaluated == 0 {
					t.Fatalf("fanout=%d cap=%d: no Admits evaluations", fanout, cap)
				}
				gotSet := make(map[uint32]bool, len(got))
				for _, id := range got {
					gotSet[id] = true
				}
				for id := range want {
					if !gotSet[id] {
						t.Fatalf("fanout=%d cap=%d: tree pruned station %d that flat scan admits", fanout, cap, id)
					}
				}
			}
		}
	}
}

// TestTreeStructure pins B-tree shape invariants through adds and removes.
func TestTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New(Options{Fanout: 3})
	present := make(map[uint32]*index.Summary)
	for i := 0; i < 200; i++ {
		id := uint32(rng.Intn(50))
		if _, ok := present[id]; ok && rng.Intn(2) == 0 {
			tr.Remove(id)
			delete(present, id)
		} else {
			s := buildSummary(t, []pattern.Pattern{randPattern(rng)})
			if err := tr.Add(id, s); err != nil {
				t.Fatalf("Add: %v", err)
			}
			present[id] = s
		}
		if tr.Len() != len(present) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(present))
		}
		checkInvariants(t, tr)
		for id := range present {
			if !tr.Has(id) {
				t.Fatalf("Has(%d) = false after add", id)
			}
		}
	}
	for id := range present {
		tr.Remove(id)
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Fatalf("tree not empty after removing all: len=%d", tr.Len())
	}
}

// checkInvariants verifies sorted disjoint child ranges, fanout bounds,
// uniform leaf depth, and correct min/max on every inner node.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		return
	}
	leafDepth := -1
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf depth %d != %d", depth, leafDepth)
			}
			if n.min != n.station || n.max != n.station {
				t.Fatalf("leaf range [%d,%d] != station %d", n.min, n.max, n.station)
			}
			return
		}
		if len(n.children) == 0 {
			t.Fatalf("empty inner node survived")
		}
		if len(n.children) > tr.opts.Fanout {
			t.Fatalf("node has %d children, fanout %d", len(n.children), tr.opts.Fanout)
		}
		if n.sum == nil {
			t.Fatalf("inner node without union")
		}
		min, max := n.children[0].min, n.children[0].max
		prev := n.children[0]
		for _, c := range n.children[1:] {
			if c.min <= prev.max {
				t.Fatalf("child ranges overlap or out of order: [%d,%d] after [%d,%d]", c.min, c.max, prev.min, prev.max)
			}
			if c.min < min {
				min = c.min
			}
			if c.max > max {
				max = c.max
			}
			prev = c
		}
		if n.min != min || n.max != max {
			t.Fatalf("inner range [%d,%d], children span [%d,%d]", n.min, n.max, min, max)
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(tr.root, 0)
}

// TestTreeReplaceAndIntrospection covers Add-as-replace, UnionBytes and
// Nodes.
func TestTreeReplaceAndIntrospection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(Options{Fanout: 4, MaxUnionBits: 1 << 12})
	for id := uint32(0); id < 30; id++ {
		if err := tr.Add(id, buildSummary(t, []pattern.Pattern{randPattern(rng)})); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := tr.Add(5, buildSummary(t, []pattern.Pattern{randPattern(rng)})); err != nil {
		t.Fatalf("replace Add: %v", err)
	}
	if tr.Len() != 30 {
		t.Fatalf("Len after replace = %d, want 30", tr.Len())
	}
	inner, leaves := tr.Nodes()
	if leaves != 30 {
		t.Fatalf("leaves = %d, want 30", leaves)
	}
	if inner < 8 { // 30 leaves at fanout 4 need >= ceil(30/4) bottom inners
		t.Fatalf("inner = %d, implausibly few for fanout 4", inner)
	}
	if tr.UnionBytes() == 0 {
		t.Fatalf("UnionBytes = 0 with %d inner nodes", inner)
	}
	// The cap bounds every union: no inner node may exceed it.
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			return
		}
		if n.sum.Bits() > 1<<12 {
			t.Fatalf("union of %d bits exceeds cap", n.sum.Bits())
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
}

// TestTreeRejectsForeignGeometry pins the admission guard: digests from a
// different key space are rejected and the tree is unchanged.
func TestTreeRejectsForeignGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New(Options{})
	if err := tr.Add(1, buildSummary(t, []pattern.Pattern{randPattern(rng)})); err != nil {
		t.Fatalf("Add: %v", err)
	}
	foreign, err := index.New(testLength, 4, index.DefaultFPTarget, index.DefaultSeed+1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := tr.Add(2, foreign); err == nil {
		t.Fatalf("Add of foreign-seed digest succeeded, want error")
	}
	if tr.Len() != 1 || tr.Has(2) {
		t.Fatalf("rejected add mutated the tree")
	}
	if err := tr.Add(3, nil); err == nil {
		t.Fatalf("Add(nil) succeeded, want error")
	}
}

// TestRouteCountsAndEmptyTree pins the evaluated counter and empty-tree
// behavior.
func TestRouteCountsAndEmptyTree(t *testing.T) {
	tr := New(Options{})
	if got, n := tr.Route(nil); got != nil || n != 0 {
		t.Fatalf("empty tree Route = %v, %d", got, n)
	}
	rng := rand.New(rand.NewSource(9))
	var patterns []pattern.Pattern
	for id := uint32(0); id < 10; id++ {
		p := randPattern(rng)
		patterns = append(patterns, p)
		if err := tr.Add(id, buildSummary(t, []pattern.Pattern{p})); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	probe := probeFor(t, []pattern.Pattern{patterns[0]}, 0)
	admitted, evaluated := tr.Route([]index.Probe{probe})
	if len(admitted) == 0 {
		t.Fatalf("resident's own pattern admitted nowhere")
	}
	inner, leaves := tr.Nodes()
	if evaluated == 0 || evaluated > inner+leaves {
		t.Fatalf("evaluated %d Admits across %d nodes (one probe)", evaluated, inner+leaves)
	}
}

func ExampleTree() {
	tr := New(Options{Fanout: 4})
	for id := uint32(0); id < 12; id++ {
		s, _ := index.Build(4, []pattern.Pattern{{int64(id), 1, 2, 3}})
		_ = tr.Add(id, s)
	}
	inner, leaves := tr.Nodes()
	fmt.Println(tr.Len(), leaves, inner > 0)
	// Output: 12 12 true
}
