// AllocsPerRun pins: the functions of this package held to 0 allocs/op.
package bitset

import "testing"

var countSink uint64

func TestNoallocCount(t *testing.T) {
	s := New(1 << 12)
	for i := uint64(0); i < s.Len(); i += 7 {
		s.Set(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		countSink = s.Count()
	}); n != 0 {
		t.Fatalf("(*Set).Count allocates %v times per run; want 0", n)
	}
}

func TestNoallocUnionWith(t *testing.T) {
	dst, src := New(1<<12), New(1<<12)
	for i := uint64(0); i < src.Len(); i += 5 {
		src.Set(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := dst.UnionWith(src); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("(*Set).UnionWith allocates %v times per run; want 0", n)
	}
}

var wordsSink []uint64

func TestNoallocWords(t *testing.T) {
	s := New(1 << 12)
	if n := testing.AllocsPerRun(100, func() {
		wordsSink = s.Words()
	}); n != 0 {
		t.Fatalf("(*Set).Words allocates %v times per run; want 0", n)
	}
}
