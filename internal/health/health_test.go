package health

import (
	"errors"
	"testing"
	"time"

	"perpos/internal/core"
)

var t0 = time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)

func TestBreakerTripsOnConsecutiveErrors(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 3})
	boom := errors.New("boom")
	m.NodeResult("wifi", boom)
	m.NodeResult("wifi", boom)
	if ev := m.Advance(t0); len(ev) != 0 {
		t.Fatalf("tripped after 2 errors: %v", ev)
	}
	m.NodeResult("wifi", boom)
	ev := m.Advance(t0)
	if len(ev) != 1 || ev[0].Up || ev[0].Reason != "errors" {
		t.Fatalf("events = %+v, want one down(errors)", ev)
	}
	if !errors.Is(ev[0].Err, boom) {
		t.Errorf("event error = %v, want the tripping error", ev[0].Err)
	}
	h, ok := m.Health("wifi")
	if !ok || h.State != StateDown || h.Trips != 1 {
		t.Errorf("health = %+v, want down with 1 trip", h)
	}
}

func TestSuccessBreaksTheStreak(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 2})
	boom := errors.New("boom")
	m.NodeResult("wifi", boom)
	m.NodeResult("wifi", nil)
	m.NodeResult("wifi", boom)
	if ev := m.Advance(t0); len(ev) != 0 {
		t.Fatalf("tripped on a broken streak: %v", ev)
	}
}

func TestWatchdogTripsOnSilenceOnlyAfterFirstOutput(t *testing.T) {
	m := NewMonitor(Policy{Deadline: time.Second})
	m.Watch("wifi")
	// Never emitted: no deadline, however much time passes (cold start).
	if ev := m.Advance(t0.Add(time.Hour)); len(ev) != 0 {
		t.Fatalf("cold-start watchdog tripped: %v", ev)
	}
	m.Tap("wifi", core.Sample{}) // monitor clock stamps real time here
	h, _ := m.Health("wifi")
	if ev := m.Advance(h.LastOutput.Add(500 * time.Millisecond)); len(ev) != 0 {
		t.Fatalf("tripped within deadline: %v", ev)
	}
	ev := m.Advance(h.LastOutput.Add(2 * time.Second))
	if len(ev) != 1 || ev[0].Up || ev[0].Reason != "silence" {
		t.Fatalf("events = %+v, want one down(silence)", ev)
	}
}

func TestUnwatchedNodesNeverDeadlineTrip(t *testing.T) {
	m := NewMonitor(Policy{Deadline: time.Second})
	m.Tap("lazy", core.Sample{})
	h, _ := m.Health("lazy")
	if ev := m.Advance(h.LastOutput.Add(time.Hour)); len(ev) != 0 {
		t.Fatalf("unwatched node tripped: %v", ev)
	}
}

func TestPerNodeDeadlineOverride(t *testing.T) {
	m := NewMonitor(Policy{
		Deadline:  time.Hour,
		Deadlines: map[string]time.Duration{"wifi": 100 * time.Millisecond},
	})
	m.Tap("wifi", core.Sample{})
	h, _ := m.Health("wifi")
	ev := m.Advance(h.LastOutput.Add(200 * time.Millisecond))
	if len(ev) != 1 || ev[0].Reason != "silence" {
		t.Fatalf("events = %+v, want the per-node deadline to trip", ev)
	}
}

func TestRecoveryNeedsEmissionsAndNoStreak(t *testing.T) {
	m := NewMonitor(Policy{MaxConsecutiveErrors: 1, RecoveryEmissions: 2})
	m.NodeResult("wifi", errors.New("boom"))
	if ev := m.Advance(t0); len(ev) != 1 || ev[0].Up {
		t.Fatalf("setup: want a down event, got %v", ev)
	}
	// One emission: not enough.
	m.Tap("wifi", core.Sample{})
	if ev := m.Advance(t0.Add(time.Second)); len(ev) != 0 {
		t.Fatalf("recovered after 1 emission, want 2: %v", ev)
	}
	// Second emission, but the error streak is still standing — the
	// consecutive counter must be cleared by a success first.
	m.Tap("wifi", core.Sample{})
	if ev := m.Advance(t0.Add(2 * time.Second)); len(ev) != 0 {
		t.Fatalf("recovered with a standing error streak: %v", ev)
	}
	m.NodeResult("wifi", nil)
	ev := m.Advance(t0.Add(3 * time.Second))
	if len(ev) != 1 || !ev[0].Up || ev[0].Reason != "recovered" {
		t.Fatalf("events = %+v, want one up(recovered)", ev)
	}
	if m.AnyDown() {
		t.Error("AnyDown after recovery")
	}
}

func TestGateQuarantinesWithProbes(t *testing.T) {
	now := t0
	m := NewMonitor(
		Policy{MaxConsecutiveErrors: 1, ProbeInterval: time.Second},
		WithClock(func() time.Time { return now }),
	)
	if !m.Allow("wifi") {
		t.Fatal("healthy node gated off")
	}
	m.NodeResult("wifi", errors.New("boom"))
	m.Advance(now)
	if m.Allow("wifi") {
		t.Fatal("quarantined node admitted before the probe interval")
	}
	now = now.Add(2 * time.Second)
	if !m.Allow("wifi") {
		t.Fatal("probe not admitted after the interval")
	}
	if m.Allow("wifi") {
		t.Fatal("second probe admitted immediately — probes must be paced")
	}
}

func TestSnapshotSorted(t *testing.T) {
	m := NewMonitor(Policy{})
	m.NodeResult("b", nil)
	m.NodeResult("a", nil)
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Node != "a" || snap[1].Node != "b" {
		t.Fatalf("snapshot = %+v, want sorted [a b]", snap)
	}
}
