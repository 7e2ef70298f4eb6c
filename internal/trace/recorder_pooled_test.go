package trace_test

import (
	"bytes"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/trace"
)

// record runs a receiver for the given number of steps and returns the
// Recorder's output for it.
func record(t *testing.T, steps int, opts ...gps.ReceiverOption) []byte {
	t.Helper()
	tr := trace.OutdoorTrack(geo.Point{Lat: 56.1629, Lon: 10.2039}, 3, 4, 60, 1.4, time.Second)
	g := core.New()
	if _, err := g.Add(gps.NewReceiver("gps", tr, gps.Config{Seed: 3, ColdStart: time.Second}, opts...)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(core.NewSink("app", []core.Kind{gps.KindRaw})); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("gps", "app", 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(g, "gps", &buf)
	for i := 0; i < steps; i++ {
		if _, err := g.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecorderDetachesPooledPayloads: a pooled receiver's sentences
// must be recorded as the same strings a plain receiver emits, so a
// recording replays the same whichever receiver produced it.
func TestRecorderDetachesPooledPayloads(t *testing.T) {
	plain := record(t, 40)
	pooled := record(t, 40, gps.WithPooledOutput())
	if len(plain) == 0 || bytes.Count(plain, []byte("\n")) < 10 {
		t.Fatalf("plain recording too short:\n%s", plain)
	}
	if !bytes.Equal(plain, pooled) {
		t.Fatalf("recordings differ:\nplain:\n%.400s\npooled:\n%.400s", plain, pooled)
	}
	samples, err := trace.ReadRecorded(bytes.NewReader(pooled),
		map[core.Kind]trace.Decoder{gps.KindRaw: trace.StringDecoder})
	if err != nil {
		t.Fatalf("pooled recording does not replay: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("pooled recording replayed no samples")
	}
}
