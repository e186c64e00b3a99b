package wire

import (
	"encoding/hex"
	"errors"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
)

// summaryOf is the summary reply of a station serving digest s.
func summaryOf(s *index.Summary, station uint32) SummaryReply {
	return SummaryReply{
		Station:   station,
		Length:    uint32(s.Length()),
		Residents: s.Residents(),
		Seed:      s.Seed(),
		Bits:      s.Bits(),
		Hashes:    uint32(s.Hashes()),
		Inserted:  s.Inserted(),
		Words:     s.Words(),
	}
}

func TestSummaryReplyRoundtrip(t *testing.T) {
	s, err := index.Build(4, []pattern.Pattern{{1, 2, 3, 4}, {0, 5, 0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	msg := EncodeSummaryReply(summaryOf(s, 7))
	decoded, err := Decode(msg.WithRequest(9).Encode())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := DecodeSummaryReply(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Station != 7 || sr.Residents != 2 || int(sr.Length) != 4 {
		t.Fatalf("header %+v, want station 7, 2 residents, length 4", sr)
	}
	got, err := index.FromParts(int(sr.Length), sr.Seed, sr.Words, sr.Bits, int(sr.Hashes), sr.Inserted, sr.Residents)
	if err != nil {
		t.Fatal(err)
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
	got := hex.EncodeToString(EncodeSummaryReply(summaryOf(s, 3)).WithRequest(42).Encode())
	if got != workedSummaryReplyHex {
		t.Fatalf("summary-reply worked frame drifted:\n got %s\nwant %s", got, workedSummaryReplyHex)
	}
}

// TestSummaryReplyRejectsCorruption: truncated payloads, trailing bytes and
// a zero hash count fail with errors, never panic. Whether the words fit the
// declared bit length is index.FromParts' check (bloom.TestFromPartsValidation).
func TestSummaryReplyRejectsCorruption(t *testing.T) {
	s, err := index.Build(3, []pattern.Pattern{{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	msg := EncodeSummaryReply(summaryOf(s, 1))
	for cut := 1; cut < len(msg.Payload); cut++ {
		bad := Message{Kind: KindSummaryReply, Payload: msg.Payload[:cut]}
		if _, err := DecodeSummaryReply(bad); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeSummaryReply(Message{Kind: KindStats}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	trunc := append([]byte(nil), msg.Payload...)
	bad := Message{Kind: KindSummaryReply, Payload: append(trunc, 0, 0, 0, 0, 0, 0, 0, 0)}
	if _, err := DecodeSummaryReply(bad); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A Version 14 adaptive digest: hash count 0, refused as such whether or
	// not its geometry tail follows the words.
	adaptive := mustHex(t, adaptiveSummaryHex)
	for _, p := range [][]byte{adaptive, adaptive[:54]} {
		if _, err := DecodeSummaryReply(Message{Kind: KindSummaryReply, Payload: p}); !errors.Is(err, ErrNoHashes) {
			t.Fatalf("summary with hash count 0 (%d bytes): err = %v, want ErrNoHashes", len(p), err)
		}
	}
}
