package core

// Indexes exposes the k bit positions a (sample slot, accumulated value) pair
// hashes to, so property_test.go can keep a map-per-bit reference filter over
// the same hash family and key space.
func (f *Filter) Indexes(slot int, value int64) []uint64 {
	return f.family.Indexes(f.keys.key(slot, value), nil)
}

// probe looks one value up through a fresh transition table: the weight
// pointers all k of its bits carry, or false when a bit is unset or the bits
// share none.
func (f *Filter) probe(slot int, value int64) ([]WeightID, bool) {
	var t stateTable
	t.reset()
	s := t.probe(f, stateStart, slot, value)
	if s == stateReject {
		return nil, false
	}
	return t.set(s), true
}

// SetTableCap sets the steps a transition table remembers before a walk
// clears it, so a test can force clears mid-walk; the returned func restores
// the cap.
func SetTableCap(n int) (restore func()) {
	old := tableCap
	tableCap = n
	return func() { tableCap = old }
}
