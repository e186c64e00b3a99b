package wal

import (
	"errors"
	"strings"
	"testing"

	"dimatch/internal/pattern"
)

// Snapshot files a station folded while snapshots still carried its routing
// digest: one resident chunk (persons 10–15, patterns of length 3), a now
// retired 0x12 digest record, and the seal (6 residents).
// adaptedSnapshotHex's digest was built under an adaptive parameter plan
// (wire Version 14): a summary payload with hash-count field 0 followed by
// the plan's geometry table. staticSnapshotHex's is index.Build's static
// digest (wire Version 15, hash count 7).
const (
	adaptedSnapshotHex = "4431534e012000000001682c4811060a030204060b03080a0c0c030e10120d0304080c0e03060a0e0f03101214" +
		"420000009f8024f012000306719a3d0cbfe5a751000100000000000000120485aaaa04c434700009010413060e783c8000500005200204a0201108412000080140040140040180010401" +
		"0900000089901f531f0600000000000000"
	staticSnapshotHex = "4431534e012000000001682c4811060a030204060b03080a0c0c030e10120d0304080c0e03060a0e0f03101214" +
		"370000006dc6670312000306719a3d0cbfe5a7510001000000000000071204c0b25a1191a6f486a988df2b4674392843012025459c162864b00809011e181d" +
		"0900000089901f531f0600000000000000"
)

// TestSnapshotDropsAdaptiveDigest: the 0x12 digest record is retired, so a
// snapshot carrying one, adaptive or static, is refused with the loader's
// typed unknown-kind error rather than recovered.
func TestSnapshotDropsAdaptiveDigest(t *testing.T) {
	for name, fixtureHex := range map[string]string{"adaptive": adaptedSnapshotHex, "static": staticSnapshotHex} {
		t.Run(name, func(t *testing.T) {
			_, err := decodeSnapshot[pattern.Pattern](mustHex(t, fixtureHex))
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "record kind 0x12") {
				t.Fatalf("decodeSnapshot: err = %v, want ErrBadSnapshot: record kind 0x12", err)
			}
		})
	}
}
