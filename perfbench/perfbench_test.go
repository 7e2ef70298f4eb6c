package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"perpos/internal/wifi"
)

// The same seed must give a byte-identical fixture, and another seed a
// different one.
func TestFixtureDeterministic(t *testing.T) {
	for name, gen := range map[string]func(int64) (*fixture, error){"gps": gpsFixture, "fusion": fusionFixture} {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.fixtureBytes(), b.fixtureBytes()) {
			t.Errorf("%s: seed 7 gave two different fixtures", name)
		}
		if bytes.Equal(a.fixtureBytes(), c.fixtureBytes()) {
			t.Errorf("%s: seeds 7 and 8 gave the same fixture", name)
		}
	}
}

// expected must agree with summing the fixture epoch by epoch,
// including replays that wrap around its end.
func TestExpectedWraps(t *testing.T) {
	fx, err := gpsFixture(3)
	if err != nil {
		t.Fatal(err)
	}
	n := fx.epochs()
	for _, c := range []struct{ off, k int }{{0, 10}, {n - 5, 12}, {n / 2, 2*n + 7}, {0, n}} {
		var count int64
		var sum uint64
		for i := 0; i < c.k; i++ {
			e := (c.off + i) % n
			count += fx.fixes[e+1] - fx.fixes[e]
			sum += fx.sums[e+1] - fx.sums[e]
		}
		gotCount, gotSum := fx.expected(c.off, c.k)
		if gotCount != count || gotSum != sum {
			t.Errorf("expected(%d, %d) = %d, %x; want %d, %x", c.off, c.k, gotCount, gotSum, count, sum)
		}
	}
}

func testEnv(t *testing.T, fx *fixture, w *workload, sessions int) *env {
	t.Helper()
	spec := w.spec
	spec.config = filepath.Join("..", spec.config)
	spec.sessions = sessions
	spec.scratch = t.TempDir()
	e, err := newEnv(fx, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// Allocations and bytes per position must not depend on how many steps
// a round runs: a round's fixed costs, such as warm-up inside the timed
// region, would show up as a difference here.
func TestPerPositionCountsIndependentOfRoundLength(t *testing.T) {
	fx, err := gpsFixture(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gps-bare", "gps-stack"} {
		w := *workloads[name]
		e := testEnv(t, fx, &w, 10)
		// A discarded round first: one-off costs such as creating the
		// checkpoint journals belong to no round length.
		newDriver(&w, e).round()
		var per [2][2]float64
		for i, steps := range []int{2500, 5000} {
			w.round = steps
			d := newDriver(&w, e)
			r := d.round()
			if d.failed != 0 {
				t.Fatalf("%s: %d failed operations", name, d.failed)
			}
			per[i] = [2]float64{float64(r.mallocs) / float64(r.positions), float64(r.bytes) / float64(r.positions)}
		}
		for j, what := range []string{"allocs", "bytes"} {
			a, b := per[0][j], per[1][j]
			if math.Abs(a-b) > 0.005*a {
				t.Errorf("%s: %s per position %.3f at 2500 steps, %.3f at 5000", name, what, a, b)
			}
		}
	}
}

// The output check must fail when a session delivers other positions
// than its replayed epochs encode.
func TestOutputCheckFails(t *testing.T) {
	fx, err := gpsFixture(9)
	if err != nil {
		t.Fatal(err)
	}
	w := *workloads["gps-bare"]
	e := testEnv(t, fx, &w, 4)
	if bad, _, _ := e.check(); bad != 0 {
		t.Fatalf("%d sessions mismatched after warm-up", bad)
	}
	e.sessions[1].sum++
	e.sessions[2].got--
	if bad, _, _ := e.check(); bad != 2 {
		t.Fatalf("check found %d mismatched sessions, want 2", bad)
	}
}

// Fused positions must stay inside the trip's bounding box.
func TestFusionInsideBounds(t *testing.T) {
	fx, err := fusionFixture(4)
	if err != nil {
		t.Fatal(err)
	}
	w := *workloads["fusion-live"]
	e := testEnv(t, fx, &w, 2)
	w.batch, w.round, w.rate = 10, 400, 0
	d := newDriver(&w, e)
	d.round()
	if bad, n, _ := e.check(); bad != 0 || n == 0 || d.failed != 0 {
		t.Fatalf("%d positions, %d outside the box, %d failed operations", n, e.m.outside, d.failed)
	}
}

// trimmedMean drops the lowest and highest tenth and leaves its input
// in order.
func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if got := trimmedMean(xs); got != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5", got)
	}
	if xs[0] != 100 || xs[9] != -50 {
		t.Errorf("trimmedMean reordered its input: %v", xs)
	}
	if got := trimmedMean([]float64{3, 9}); got != 6 {
		t.Errorf("trimmedMean of two values = %v, want 6", got)
	}
}

// fixtureBytes renders the fixture as the NMEA log it replays, for the
// byte-identity self-test.
func (f *fixture) fixtureBytes() []byte {
	var buf bytes.Buffer
	for e := range f.times {
		fmt.Fprintf(&buf, "# %d %s\n", e, f.times[e].Format(time.RFC3339Nano))
		for _, p := range f.nmea[f.start[e]:f.start[e+1]] {
			buf.WriteString(p.(string))
			buf.WriteByte('\n')
		}
		if f.scans != nil && f.scans[e] != nil {
			for _, r := range f.scans[e].(*wifi.Scan).Readings {
				fmt.Fprintf(&buf, "scan %s %x\n", r.BSSID, math.Float64bits(r.RSSI))
			}
		}
	}
	return buf.Bytes()
}
