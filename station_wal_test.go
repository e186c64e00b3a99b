package dimatch

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// logBodies splits a WAL log file into its record bodies, framed as
// documented in the wal package: u32 length, u32 CRC, kind byte, body.
func logBodies(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for len(data) > 0 {
		if len(data) < 9 {
			t.Fatalf("log ends in a %d-byte partial header", len(data))
		}
		n := int(binary.LittleEndian.Uint32(data[:4]))
		if n < 1 || 8+n > len(data) {
			t.Fatalf("record of %d bytes overruns the %d-byte log", n, len(data))
		}
		bodies = append(bodies, data[9:8+n])
		data = data[8+n:]
	}
	return bodies
}

// TestStationLogsReceivedPayload pins what a durable station logs for an
// ingest: the received frame's payload, byte for byte, when every row was
// applied; only the applied rows, encoded again, when some row was skipped
// (one all-zero, one of a foreign length). Recovery folds both records into
// the residents the station acknowledged.
func TestStationLogsReceivedPayload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "station-1")
	st, err := wal.Open(dir, wal.Options{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	center, end := transport.Pipe(nil, nil)
	s, err := newStation(1, nil, end, st)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	mux := transport.NewMux(center)
	ingest := func(persons []PersonID, locals []Pattern) (wire.Message, uint64) {
		t.Helper()
		msg := ingestFrame(t, persons, locals)
		reply, err := mux.Roundtrip(context.Background(), msg)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := wire.DecodeStatsReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		return msg, sr.Residents
	}

	full, residents := ingest([]PersonID{3, 5, 9}, []Pattern{{1, 2, 3}, {0, 0, 1}, {4, 4, 4}})
	if residents != 3 {
		t.Fatalf("full batch: %d residents, want 3", residents)
	}
	if _, residents := ingest([]PersonID{4, 6, 7}, []Pattern{{0, 0, 0}, {1, 2}, {7, 7, 7}}); residents != 4 {
		t.Fatalf("partial batch: %d residents, want 4 (one row applied)", residents)
	}
	_ = mux.Send(wire.ShutdownMessage())
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = mux.Close()

	bodies := logBodies(t, filepath.Join(dir, fmt.Sprintf("wal-%016x.log", 0)))
	if len(bodies) != 2 {
		t.Fatalf("log holds %d records, want 2", len(bodies))
	}
	if !bytes.Equal(bodies[0], full.Payload) {
		t.Fatalf("fully applied batch logged as %x, want the received payload %x", bodies[0], full.Payload)
	}
	wantPartial, err := wire.EncodeRows(nil, []PersonID{7}, []Pattern{{7, 7, 7}}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodies[1], wantPartial) {
		t.Fatalf("partly applied batch logged as %x, want only the applied row %x", bodies[1], wantPartial)
	}

	st, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	img, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if want := []PersonID{3, 5, 7, 9}; !slices.Equal(img.Persons, want) {
		t.Fatalf("recovered persons %v, want %v", img.Persons, want)
	}
}
