package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dimatch/internal/pattern"
)

// goldenLocals is a fixed resident set: 40 rows of the given length from a
// 64-bit LCG, every row non-zero, values spanning small counts and
// multi-digit volumes so the prefix sums reach a wide key range.
func goldenLocals(length int) []pattern.Pattern {
	x := uint64(0x9e3779b97f4a7c15)
	locals := make([]pattern.Pattern, 40)
	for i := range locals {
		row := make(pattern.Pattern, length)
		for g := range row {
			x = x*6364136223846793005 + 1442695040888963407
			row[g] = int64(x>>33) % 97
		}
		row[i%length]++
		locals[i] = row
	}
	return locals
}

// wordsSHA256 hashes a digest's little-endian words.
func wordsSHA256(s *Summary) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range s.Words() {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGoldenWords pins index.Build's digest bit for bit: geometry,
// insertion count and a SHA-256 over the little-endian words. Stations and
// coordinators of one deployment must hash identically, and a restarted
// station's rebuilt digest must equal the one it served before, so any
// change to the key derivation (position salts, value mixing, the hash
// family) has to show up here.
func TestBuildGoldenWords(t *testing.T) {
	s, err := Build(6, goldenLocals(6))
	if err != nil {
		t.Fatal(err)
	}
	got := wordsSHA256(s)
	const want = "38a5cdd954613171eae98d00784b419517e8c545d421577e955840c345f4d844"
	if s.Bits() != 4096 || s.Hashes() != 7 || s.Inserted() != 240 || got != want {
		t.Fatalf("digest drifted: bits %d hashes %d inserted %d sha256 %s", s.Bits(), s.Hashes(), s.Inserted(), got)
	}
}

// TestBuildGoldenCoverage pins which cells a digest of the deployment's
// pattern length holds: at length 24 only the 12 sampled positions
// (pattern.SampleIndexes(24, core.DefaultSamples) = 1, 3, …, 23), so 40
// residents insert 480 cells, and the filter is sized for those 480 — 8 192
// bits, not the 16 384 that all 24 positions would need. A change of the
// covered positions or of the sizing shows up here, before any wire test.
func TestBuildGoldenCoverage(t *testing.T) {
	s, err := Build(24, goldenLocals(24))
	if err != nil {
		t.Fatal(err)
	}
	got := wordsSHA256(s)
	const want = "d1870ecf56407ee1ce85909c4fbeeb9c2c28fe3d9f167c8028887ceb638f5be9"
	if s.Inserted() != 40*12 || s.Bits() != 8192 || s.Hashes() != 7 || got != want {
		t.Fatalf("length-24 digest drifted: bits %d hashes %d inserted %d sha256 %s", s.Bits(), s.Hashes(), s.Inserted(), got)
	}
}
