package wire

import (
	"encoding/hex"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
)

// workedParamPlan is the adaptive plan carried by docs/WIRE.md's worked
// KindParamUpdate frame: three position groups with growing bit weights,
// re-fitted hash counts, and coarsening quanta.
func workedParamPlan() *index.Plan {
	return &index.Plan{
		Epoch:  2,
		Seed:   0x0417,
		Length: 3,
		Groups: []index.PlanGroup{
			{Weight: 2, Hashes: 5, Quantum: 1},
			{Weight: 3, Hashes: 6, Quantum: 4},
			{Weight: 4, Hashes: 7, Quantum: 16},
		},
	}
}

// TestWorkedParamUpdateHex pins the worked frame from docs/WIRE.md to the
// live encoder, byte for byte: if the encoding changes shape, the doc and
// this pin fail together.
func TestWorkedParamUpdateHex(t *testing.T) {
	m, err := EncodeParamUpdate(ParamUpdate{Epoch: 2, Plan: workedParamPlan()})
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(m.WithRequest(42).Encode())
	if got != workedParamUpdateHex {
		t.Fatalf("worked param-update frame drifted from docs/WIRE.md:\n got  %s\n want %s", got, workedParamUpdateHex)
	}
}

func TestParamUpdateRoundtrip(t *testing.T) {
	plan := workedParamPlan()
	m, err := EncodeParamUpdate(ParamUpdate{Epoch: plan.Epoch, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeParamUpdate(m)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != plan.Epoch || out.Plan == nil || !out.Plan.Equal(plan) {
		t.Fatalf("roundtrip changed the update: %+v", out)
	}

	// A nil plan is the revert-to-static order; it must survive too.
	rm, err := EncodeParamUpdate(ParamUpdate{Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := DecodeParamUpdate(rm)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Epoch != 9 || rev.Plan != nil {
		t.Fatalf("revert roundtrip changed the update: %+v", rev)
	}
}

func TestEncodeParamUpdateRejects(t *testing.T) {
	plan := workedParamPlan()
	if _, err := EncodeParamUpdate(ParamUpdate{Epoch: plan.Epoch + 1, Plan: plan}); err == nil {
		t.Fatal("epoch disagreeing with plan epoch accepted")
	}
	bad := plan.Clone()
	bad.Groups[1].Hashes = 0
	if _, err := EncodeParamUpdate(ParamUpdate{Epoch: bad.Epoch, Plan: bad}); err == nil {
		t.Fatal("zero-hash group accepted")
	}
}

func TestDecodeParamUpdateRejectsCorruption(t *testing.T) {
	plan := workedParamPlan()
	m, err := EncodeParamUpdate(ParamUpdate{Epoch: plan.Epoch, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(p []byte)) Message {
		p := append([]byte(nil), m.Payload...)
		mutate(p)
		return Message{Kind: KindParamUpdate, Payload: p}
	}
	// Payload layout: epoch u64 | marker u8 | seed u64 | length uvarint |
	// (weight uvarint, hashes u8, quantum uvarint) per group.
	cases := map[string]Message{
		"non-boolean plan marker": corrupt(func(p []byte) { p[8] = 2 }),
		"zero-hash group":         corrupt(func(p []byte) { p[19] = 0 }),
		"truncated mid-plan":      {Kind: KindParamUpdate, Payload: m.Payload[:len(m.Payload)-2]},
		"trailing garbage":        {Kind: KindParamUpdate, Payload: append(append([]byte(nil), m.Payload...), 0)},
		"wrong kind":              {Kind: KindAck, Payload: m.Payload},
	}
	for name, msg := range cases {
		if _, err := DecodeParamUpdate(msg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A group count far beyond the remaining bytes must trip the count
	// guard, and one beyond MaxPlanGroups the explicit bound.
	var w writer
	w.u64(1)
	w.u8(1)
	w.u64(0)
	w.uvarint(uint64(index.MaxPlanGroups) + 1)
	if _, err := DecodeParamUpdate(Message{Kind: KindParamUpdate, Payload: w.buf}); err == nil {
		t.Error("oversized group count accepted")
	}
}

func TestParamAckRoundtrip(t *testing.T) {
	for _, ack := range []ParamAck{
		{Station: 7, Epoch: 3, Applied: true},
		{Station: 0, Epoch: 12, Applied: false},
	} {
		out, err := DecodeParamAck(EncodeParamAck(ack))
		if err != nil {
			t.Fatal(err)
		}
		if out != ack {
			t.Fatalf("roundtrip changed the ack: %+v vs %+v", out, ack)
		}
	}
	m := EncodeParamAck(ParamAck{Station: 1, Epoch: 1, Applied: true})
	bad := append([]byte(nil), m.Payload...)
	bad[len(bad)-1] = 2
	if _, err := DecodeParamAck(Message{Kind: KindParamAck, Payload: bad}); err == nil {
		t.Fatal("non-boolean applied marker accepted")
	}
	if _, err := DecodeParamAck(Message{Kind: KindAck, Payload: m.Payload}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

// TestAdaptiveSummaryRoundtrip covers the v7 extension of the digest codec:
// an adaptive digest ships its epoch and per-group geometry table after the
// words, reconstructs into an equivalent summary, and keeps answering probes
// identically — while static digests stay byte-identical to their v5
// encoding.
func TestAdaptiveSummaryRoundtrip(t *testing.T) {
	locals := make([]pattern.Pattern, 0, 8)
	for i := 0; i < 8; i++ {
		base := int64(i*37 + 5)
		locals = append(locals, pattern.Pattern{base, base * 2, base + 90, base % 17})
	}
	plan := &index.Plan{
		Epoch:  4,
		Seed:   31,
		Length: 4,
		Groups: []index.PlanGroup{
			{Weight: 1, Hashes: 3, Quantum: 1},
			{Weight: 2, Hashes: 4, Quantum: 2},
			{Weight: 3, Hashes: 5, Quantum: 4},
			{Weight: 2, Hashes: 4, Quantum: 8},
		},
	}
	sum, err := index.BuildAdaptive(plan, 4, locals)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Adaptive() || sum.AdaptiveEpoch() != 4 {
		t.Fatalf("BuildAdaptive produced a non-adaptive summary (epoch %d)", sum.AdaptiveEpoch())
	}

	m := EncodeSummaryReply(sum, 8)
	sr, got, err := DecodeSummaryReply(m)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Station != 8 || sr.Hashes != 0 || sr.ParamEpoch != 4 {
		t.Fatalf("adaptive reply header wrong: %+v", sr)
	}
	if !got.Adaptive() || got.AdaptiveEpoch() != 4 {
		t.Fatal("decoded summary lost adaptivity")
	}
	if got.Bits() != sum.Bits() || got.Inserted() != sum.Inserted() || got.SizeBytes() != sum.SizeBytes() {
		t.Fatalf("decoded summary geometry drifted: bits %d vs %d, inserted %d vs %d",
			got.Bits(), sum.Bits(), got.Inserted(), sum.Inserted())
	}
	gg, sg := got.Geometry(), sum.Geometry()
	if len(gg) != len(sg) {
		t.Fatalf("geometry table length %d vs %d", len(gg), len(sg))
	}
	for i := range gg {
		if gg[i] != sg[i] {
			t.Fatalf("group %d geometry drifted: %+v vs %+v", i, gg[i], sg[i])
		}
	}
	// The decoded digest must admit exactly what the original admits.
	for qi, q := range append(locals, pattern.Pattern{1, 2, 3, 4}) {
		probe, err := index.NewProbe(core.Query{ID: core.QueryID(qi + 1), Locals: []pattern.Pattern{q}}, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Admits(probe) != sum.Admits(probe) {
			t.Fatalf("decoded digest disagrees on %v", q)
		}
	}

	// Corruption: a truncated geometry table must be rejected, not read as
	// a static digest.
	bad := append([]byte(nil), m.Payload[:len(m.Payload)-1]...)
	if _, _, err := DecodeSummaryReply(Message{Kind: KindSummaryReply, Payload: bad}); err == nil {
		t.Fatal("truncated adaptive geometry accepted")
	}
}

// FuzzParamUpdate mutates the worked rollout frame: any accepted frame
// must yield a plan that passes validation and survives a re-encode/decode
// roundtrip unchanged.
func FuzzParamUpdate(f *testing.F) {
	f.Add(mustHex(f, workedParamUpdateHex))
	addRetiredSeeds(f, mustHex(f, workedParamUpdateHex))
	if m, err := EncodeParamUpdate(ParamUpdate{Epoch: 5}); err == nil {
		f.Add(m.WithRequest(7).Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil || m.Kind != KindParamUpdate {
			return
		}
		pu, err := DecodeParamUpdate(m)
		if err != nil {
			return
		}
		if pu.Plan != nil {
			if err := pu.Plan.Validate(); err != nil {
				t.Fatalf("decoder let an invalid plan through: %v", err)
			}
		}
		enc, err := EncodeParamUpdate(pu)
		if err != nil {
			t.Fatalf("re-encode of accepted update failed: %v", err)
		}
		re, err := DecodeParamUpdate(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Epoch != pu.Epoch || (re.Plan == nil) != (pu.Plan == nil) {
			t.Fatalf("roundtrip changed the update: %+v vs %+v", re, pu)
		}
		if re.Plan != nil && !re.Plan.Equal(pu.Plan) {
			t.Fatalf("roundtrip changed the plan: %+v vs %+v", re.Plan, pu.Plan)
		}
	})
}
