package wire

import (
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

func TestDumpRoundTrip(t *testing.T) {
	in := Dump{Persons: []core.PersonID{90, 4, 17}}
	out, err := DecodeDump(EncodeDump(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.PersonID{4, 17, 90} // sent sorted
	if len(out.Persons) != len(want) {
		t.Fatalf("got %d persons, want %d", len(out.Persons), len(want))
	}
	for i, p := range want {
		if out.Persons[i] != p {
			t.Fatalf("person[%d] = %d, want %d", i, out.Persons[i], p)
		}
	}

	// Empty filter means "everything" and must round-trip as empty.
	all, err := DecodeDump(EncodeDump(Dump{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Persons) != 0 {
		t.Fatalf("empty dump decoded %d persons", len(all.Persons))
	}

	if _, err := DecodeDump(StatsMessage()); err == nil {
		t.Fatal("decoding a stats message as dump succeeded")
	}
}

func TestDumpReplyRoundTrip(t *testing.T) {
	in := DumpReply{
		Persons: []core.PersonID{1, 5},
		Locals:  []pattern.Pattern{{1, -2, 3}, {0, 4, 0}},
	}
	m, err := EncodeDumpReply(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeDumpReply(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Persons) != 2 {
		t.Fatalf("got %d persons", len(out.Persons))
	}
	for i := range in.Persons {
		if out.Persons[i] != in.Persons[i] || !out.Locals[i].Equal(in.Locals[i]) {
			t.Fatalf("tuple %d mismatch: %d %v", i, out.Persons[i], out.Locals[i])
		}
	}

	if _, err := EncodeDumpReply(DumpReply{Persons: []core.PersonID{1}}); err == nil {
		t.Fatal("mismatched persons/locals encoded successfully")
	}
	if _, err := DecodeDumpReply(StatsMessage()); err == nil {
		t.Fatal("decoding a stats message as dump-reply succeeded")
	}
}

// TestDumpDecodeCorrupt: truncations and bit flips fail with errors, never
// panic — the same guarantee the other decoders give.
func TestDumpDecodeCorrupt(t *testing.T) {
	m, err := EncodeDumpReply(DumpReply{
		Persons: []core.PersonID{1, 2, 9},
		Locals:  []pattern.Pattern{{5, 6}, {7, 8}, {9, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(m.Payload); cut++ {
		trunc := Message{Kind: KindDumpReply, Payload: m.Payload[:cut]}
		if _, err := DecodeDumpReply(trunc); err == nil && cut < len(m.Payload) {
			// Some prefixes decode as valid shorter replies only if they end
			// exactly on a tuple boundary AND the count matches; the reader's
			// done() check makes that impossible here because the count is
			// fixed at 3.
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for i := 0; i < len(m.Payload); i++ {
		mut := Message{Kind: KindDumpReply, Payload: append([]byte(nil), m.Payload...)}
		mut.Payload[i] ^= 0xff
		_, _ = DecodeDumpReply(mut) // must not panic
	}
}
