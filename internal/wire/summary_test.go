package wire

import (
	"encoding/hex"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
)

func TestSummaryReplyRoundtrip(t *testing.T) {
	s, err := index.Build(4, []pattern.Pattern{{1, 2, 3, 4}, {0, 5, 0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	msg := EncodeSummaryReply(s, 7)
	decoded, err := Decode(msg.WithRequest(9).Encode())
	if err != nil {
		t.Fatal(err)
	}
	sr, got, err := DecodeSummaryReply(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Station != 7 || sr.Residents != 2 || int(sr.Length) != 4 {
		t.Fatalf("header %+v, want station 7, 2 residents, length 4", sr)
	}
	probe, err := index.NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}}}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Admits(probe) {
		t.Fatal("round-tripped summary lost its cells")
	}
	miss, err := index.NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{{9, 9, 9, 9}}}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Admits(miss) {
		t.Fatal("round-tripped summary admits an unrelated query at ε=0")
	}
}

// TestWorkedSummaryHex pins the docs/WIRE.md worked summary-reply frame
// to the live encoder, so the documentation cannot drift from the code.
func TestWorkedSummaryHex(t *testing.T) {
	s, err := index.Build(2, []pattern.Pattern{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(EncodeSummaryReply(s, 3).WithRequest(42).Encode())
	if got != workedSummaryReplyHex {
		t.Fatalf("summary-reply worked frame drifted:\n got %s\nwant %s", got, workedSummaryReplyHex)
	}
}

// TestSummaryReplyRejectsCorruption: truncated payloads and implausible
// word counts fail with typed errors, never panic.
func TestSummaryReplyRejectsCorruption(t *testing.T) {
	s, err := index.Build(3, []pattern.Pattern{{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	msg := EncodeSummaryReply(s, 1)
	for cut := 1; cut < len(msg.Payload); cut++ {
		bad := Message{Kind: KindSummaryReply, Payload: msg.Payload[:cut]}
		if _, _, err := DecodeSummaryReply(bad); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeSummaryReply(Message{Kind: KindStats}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	// Word count disagreeing with the declared bit length is rejected by
	// the index reconstruction.
	trunc := append([]byte(nil), msg.Payload...)
	bad := Message{Kind: KindSummaryReply, Payload: append(trunc, 0, 0, 0, 0, 0, 0, 0, 0)}
	if _, _, err := DecodeSummaryReply(bad); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
