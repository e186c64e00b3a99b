package wire

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// sameValue is reflect.DeepEqual over unexported fields too, taking a nil
// slice for an empty one: the one way a destination refilled in place may
// differ from a fresh one without differing in what it holds.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameValue(a.Elem(), b.Elem()))
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	panic(fmt.Sprintf("sameValue: no comparison for %v", a.Kind()))
}

// usedPrimes are payloads a destination can last have decoded: a large and
// a small valid frame, and three that fail half-way — in the dictionary,
// at the pad bits after every array is written, and in core's validation
// after the filter's parameters were reset.
func usedPrimes() [][]byte {
	worked, _ := hex.DecodeString(workedBatchQueryHex)
	primes := [][]byte{validRawFilter().payload(), worked[HeaderSize:]}
	for _, tt := range hostileFilters() {
		switch tt.name {
		case "pointer beyond the weight table", "nonzero pad bits", "code beyond the dictionary":
			raw := validRawFilter()
			tt.mutate(&raw)
			primes = append(primes, raw.payload())
		}
	}
	return primes
}

// checkUsedDecode decodes input into a fresh BatchQuery and into one that
// last decoded prime, and holds the two to the same error or the same
// batch, field for field.
func checkUsedDecode(t testing.TB, prime, input []byte) {
	t.Helper()
	fresh, freshErr := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: input})
	var used BatchQuery
	_ = DecodeBatchQueryInto(&used, Message{Kind: KindBatchQuery, Payload: prime})
	usedErr := DecodeBatchQueryInto(&used, Message{Kind: KindBatchQuery, Payload: input})
	switch {
	case (freshErr == nil) != (usedErr == nil) || freshErr != nil && freshErr.Error() != usedErr.Error():
		t.Fatalf("after a %d-byte frame, decode errs %v; fresh, %v", len(prime), usedErr, freshErr)
	case freshErr == nil && !sameValue(reflect.ValueOf(fresh), reflect.ValueOf(used)):
		t.Fatalf("after a %d-byte frame, a %d-byte frame decodes to another batch than fresh", len(prime), len(input))
	}
}

// TestDecodeIntoUsedDestinationIsFresh: a batch query decoded into a
// destination that last held another frame — drawn batches of other
// lengths, salting and sizing, the benchmark's three shapes — or whose last
// decode failed half-way, is the batch a fresh decode gives, down to its
// sample positions, keyer and directory; a frame that fails fails with the
// fresh decode's error.
func TestDecodeIntoUsedDestinationIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := usedPrimes()
	for _, s := range frameShapes(t) {
		m, err := EncodeBatchQuery(s.batch)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, m.Payload)
	}
	for range 200 {
		b, _ := randomBatch(t, rng)
		m, err := EncodeBatchQuery(b)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, m.Payload)
	}
	for i, in := range inputs {
		for _, prime := range [][]byte{inputs[(i+1)%len(inputs)], inputs[rng.Intn(len(inputs))]} {
			checkUsedDecode(t, prime, in)
		}
	}
	for _, prime := range usedPrimes() {
		for _, in := range inputs {
			checkUsedDecode(t, prime, in)
		}
	}
}
