// AllocsPerRun pins: the functions of this package held to 0 allocs/op.
package hash

import "testing"

var mixSink uint64

func TestNoallocMix64(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		mixSink = Mix64(mixSink + 0x9e3779b9)
	}); n != 0 {
		t.Fatalf("Mix64 allocates %v times per run; want 0", n)
	}
}
