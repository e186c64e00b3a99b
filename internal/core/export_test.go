package core

// Indexes exposes the k bit positions a (sample slot, accumulated value) pair
// hashes to, so property_test.go can keep a map-per-bit reference filter over
// the same hash family and key space.
func (f *Filter) Indexes(slot int, value int64) []uint64 {
	return f.family.Indexes(f.keys.key(slot, value), nil)
}
