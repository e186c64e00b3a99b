// AllocsPerRun pins: the functions of this package held to 0 allocs/op.
package bloom

import "testing"

var containsSink bool

func TestNoallocFilterContains(t *testing.T) {
	f, err := New(1<<12, 4, 7)
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
		t.Fatalf("(*Filter).Contains allocates %v times per run; want 0", n)
	}
}
