package wal

// The retired-digest snapshot fixtures, for snapshot_search_test.go.
var (
	RetiredDigestSnapshots = retiredDigestSnapshots
	RetiredDigestPersons   = retiredDigestPersons
	RetiredDigestLocals    = retiredDigestLocals
)
