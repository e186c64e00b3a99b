package wire

import (
	"strings"
	"testing"
)

// TestKindTablesInSync pins the places a message kind must be registered —
// the String table, the frame decoder's accepted set (Kind.known) and the
// maxKind boundary — against each other. A new kind missing from one of them
// fails here.
func TestKindTablesInSync(t *testing.T) {
	retired := map[Kind]bool{1: true, 3: true, 4: true, 6: true, 7: true, 13: true}
	for k := Kind(0); k <= maxKind+1; k++ {
		named := !strings.HasPrefix(k.String(), "Kind(")
		want := k >= 1 && k <= maxKind && !retired[k]
		if k.known() != want {
			t.Errorf("kind %d: known() = %v, want %v", k, k.known(), want)
		}
		if named != want {
			t.Errorf("kind %d: String() = %q, but known() = %v — the String table and the decoder disagree", k, k.String(), want)
		}
		frame := Message{Kind: k}.Encode()
		if frame[2] != Version {
			t.Errorf("kind %d stamped version %d, want %d", k, frame[2], Version)
		}
		_, err := Decode(frame)
		if (err == nil) != want {
			t.Errorf("kind %d: Decode err = %v, want accepted = %v", k, err, want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind prints %q", Kind(99).String())
	}
}
