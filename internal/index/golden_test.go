package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dimatch/internal/pattern"
)

// goldenLocals is a fixed resident set: 40 rows of length 6 from a
// 64-bit LCG, every row non-zero, values spanning small counts and
// multi-digit volumes so the prefix sums reach a wide key range.
func goldenLocals() []pattern.Pattern {
	x := uint64(0x9e3779b97f4a7c15)
	locals := make([]pattern.Pattern, 40)
	for i := range locals {
		row := make(pattern.Pattern, 6)
		for g := range row {
			x = x*6364136223846793005 + 1442695040888963407
			row[g] = int64(x>>33) % 97
		}
		row[i%6]++
		locals[i] = row
	}
	return locals
}

// TestBuildGoldenWords pins index.Build's digest bit for bit: geometry,
// insertion count and a SHA-256 over the little-endian words. Stations and
// coordinators of one deployment must hash identically, and a restarted
// station's rebuilt digest must equal the one it served before, so any
// change to the key derivation (position salts, value mixing, the hash
// family) has to show up here.
func TestBuildGoldenWords(t *testing.T) {
	s, err := Build(6, goldenLocals())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, w := range s.Words() {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	got := hex.EncodeToString(h.Sum(nil))
	const want = "c43fb2b47c463322950616d8c4a96d2034cae5228216bb1ad5802cea6c831718"
	if s.Bits() != 4096 || s.Hashes() != 7 || s.Inserted() != 240 || s.Residents() != 40 || got != want {
		t.Fatalf("digest drifted: bits %d hashes %d inserted %d residents %d sha256 %s", s.Bits(), s.Hashes(), s.Inserted(), s.Residents(), got)
	}
}
