// AllocsPerRun pins: the functions of this package held to 0 allocs/op.
package bloom

import (
	"fmt"
	"testing"
)

var containsSink bool

// pinKs are the hash counts the pins run at: the old 16-entry index buffer
// escaped to the heap above 16, and maxWireK is what a BF query may carry.
var pinKs = []int{1, 16, 17, maxWireK}

func TestNoallocFilterContains(t *testing.T) {
	for _, k := range pinKs {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			f, err := New(1<<12, k, 7)
			if err != nil {
				t.Fatal(err)
			}
			for v := int64(0); v < 100; v++ {
				f.Add(v * 3)
			}
			if n := testing.AllocsPerRun(100, func() {
				for v := int64(0); v < 50; v++ {
					containsSink = f.Contains(v)
				}
			}); n != 0 {
				t.Fatalf("(*Filter).Contains allocates %v times per run at k = %d; want 0", n, k)
			}
		})
	}
}

func TestNoallocFilterAdd(t *testing.T) {
	for _, k := range pinKs {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			f, err := New(1<<12, k, 7)
			if err != nil {
				t.Fatal(err)
			}
			v := int64(0)
			if n := testing.AllocsPerRun(100, func() {
				f.Add(v)
				v++
			}); n != 0 {
				t.Fatalf("(*Filter).Add allocates %v times per run at k = %d; want 0", n, k)
			}
		})
	}
}

func TestNoallocFilterHashed(t *testing.T) {
	for _, k := range pinKs {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			f, err := New(1<<12, k, 7)
			if err != nil {
				t.Fatal(err)
			}
			h := uint64(0x9e3779b97f4a7c15)
			if n := testing.AllocsPerRun(100, func() {
				f.AddHash(h)
				containsSink = f.ContainsHash(h + 1)
				h += 0x632be59bd9b4e019
			}); n != 0 {
				t.Fatalf("(*Filter).AddHash/ContainsHash allocate %v times per run at k = %d; want 0", n, k)
			}
		})
	}
}
