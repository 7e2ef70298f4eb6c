package health_test

import (
	"errors"
	"testing"
	"time"

	"perpos/internal/core"
	"perpos/internal/health"
	"perpos/internal/rules"
)

// These tests pin what a declared Reroute does once supervision runs:
// the supervisor sweeps the breakers and the rules engine riding its
// OnSweep hook applies the reroutes, wired the way runtime.Session
// wires them.

var t0 = time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)

// supervise wires a supervisor and the engine that applies reroutes.
func supervise(t *testing.T, m *health.Monitor, adapter health.Adapter, reroutes []health.Reroute) (*health.Supervisor, *rules.Engine) {
	t.Helper()
	sup := health.NewSupervisor(m)
	eng, err := rules.New(rules.Config{Reroutes: reroutes, Adapter: adapter, Monitor: m})
	if err != nil {
		t.Fatal(err)
	}
	sup.OnSweep(eng.Sweep)
	eng.OnReroute(sup.Rerouted)
	return sup, eng
}

// fusionTestGraph builds the two-branch fixture the reroute tests share:
// gps and wifi sources feeding a fuse component whose output drains to app.
func fusionTestGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.New()
	for _, c := range []core.Component{
		&core.SliceSource{CompID: "gps", Out: core.OutputSpec{Kind: "pos"}},
		&core.SliceSource{CompID: "wifi", Out: core.OutputSpec{Kind: "pos"}},
		&core.FuncComponent{
			CompID: "fuse",
			CompSpec: core.Spec{
				Name: "fuse",
				Inputs: []core.PortSpec{
					{Name: "primary", Accepts: []core.Kind{"pos"}},
					{Name: "secondary", Accepts: []core.Kind{"pos"}},
				},
				Output: core.OutputSpec{Kind: "pos"},
			},
			Fn: func(_ int, in core.Sample, emit core.Emit) error {
				emit(in)
				return nil
			},
		},
		core.NewSink("app", []core.Kind{"pos"}),
	} {
		if _, err := g.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][3]any{{"gps", "fuse", 0}, {"wifi", "fuse", 1}, {"fuse", "app", 0}} {
		if err := g.Connect(e[0].(string), e[1].(string), e[2].(int)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func hasEdge(g *core.Graph, from, to string) bool {
	for _, e := range g.Edges() {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

var (
	fused      = core.Edge{From: "fuse", To: "app", Port: 0}
	gpsBypass  = core.Edge{From: "gps", To: "app", Port: 0}
	wifiBypass = core.Edge{From: "wifi", To: "app", Port: 0}
)

func TestSupervisorAppliesAndReversesReroute(t *testing.T) {
	g := fusionTestGraph(t)
	m := health.NewMonitor(health.Policy{MaxConsecutiveErrors: 1})
	var edits int
	adapter := health.AdapterFunc(func(edit func(*core.Graph) error) error {
		edits++
		return edit(g)
	})
	sup, eng := supervise(t, m, adapter, []health.Reroute{{Watch: "wifi", Break: fused, Make: gpsBypass}})

	var events []health.Event
	sup.OnEvent(func(e health.Event) { events = append(events, e) })

	m.NodeResult("wifi", errors.New("boom"))
	sup.Sweep(t0)
	if !eng.Degraded() {
		t.Fatal("not degraded after the breaker opened")
	}
	if hasEdge(g, "fuse", "app") || !hasEdge(g, "gps", "app") {
		t.Fatalf("degraded edges wrong: %v", g.Edges())
	}

	m.NodeResult("wifi", nil)
	m.Tap("wifi", core.Sample{})
	sup.Sweep(t0.Add(time.Second))
	if eng.Degraded() {
		t.Fatal("still degraded after recovery")
	}
	if !hasEdge(g, "fuse", "app") || hasEdge(g, "gps", "app") {
		t.Fatalf("restored edges wrong: %v", g.Edges())
	}
	if edits != 2 {
		t.Errorf("edits = %d, want 2 (degrade + restore)", edits)
	}
	if len(events) != 2 || events[0].Up || !events[1].Up {
		t.Errorf("events = %+v, want [down, up]", events)
	}
}

// Both fusion branches fail at once: the conflict group must engage
// exactly one rule — the lowest priority — and switch directly to the
// other rule when the preferred branch's failure becomes the only one
// left to route around. Engage, switch and restore are one edit and
// one OnReroute call each.
func TestSupervisorPriorityOrderedFallback(t *testing.T) {
	g := fusionTestGraph(t)
	m := health.NewMonitor(health.Policy{MaxConsecutiveErrors: 1})
	var edits int
	adapter := health.AdapterFunc(func(edit func(*core.Graph) error) error {
		edits++
		return edit(g)
	})
	sup, eng := supervise(t, m, adapter, []health.Reroute{
		{Watch: "wifi", Break: fused, Make: gpsBypass, Priority: 0},
		{Watch: "gps", Break: fused, Make: wifiBypass, Priority: 1},
	})
	var hooks []bool
	sup.OnReroute(func(engaged bool) { hooks = append(hooks, engaged) })

	boom := errors.New("boom")
	m.NodeResult("wifi", boom)
	m.NodeResult("gps", boom)
	if ev := sup.Sweep(t0); len(ev) != 2 {
		t.Fatalf("events = %+v, want both branches down", ev)
	}
	if !eng.Degraded() {
		t.Fatal("not degraded with both branches down")
	}
	if hasEdge(g, "fuse", "app") || !hasEdge(g, "gps", "app") || hasEdge(g, "wifi", "app") {
		t.Fatalf("both-down edges wrong (want priority-0 gps bypass only): %v", g.Edges())
	}
	if edits != 1 {
		t.Fatalf("edits = %d, want a single engage for the whole group", edits)
	}

	// The preferred rule's watch recovers while gps stays down: the group
	// must switch straight to the priority-1 rule in one edit.
	m.NodeResult("wifi", nil)
	m.Tap("wifi", core.Sample{})
	sup.Sweep(t0.Add(time.Second))
	if !eng.Degraded() {
		t.Fatal("not degraded while gps is still down")
	}
	if hasEdge(g, "fuse", "app") || hasEdge(g, "gps", "app") || !hasEdge(g, "wifi", "app") {
		t.Fatalf("post-switch edges wrong (want wifi bypass only): %v", g.Edges())
	}
	if edits != 2 {
		t.Fatalf("edits = %d, want the switch to be one atomic edit", edits)
	}

	// Full recovery restores the fused edge.
	m.NodeResult("gps", nil)
	m.Tap("gps", core.Sample{})
	sup.Sweep(t0.Add(2 * time.Second))
	if eng.Degraded() {
		t.Fatal("still degraded after full recovery")
	}
	if !hasEdge(g, "fuse", "app") || hasEdge(g, "gps", "app") || hasEdge(g, "wifi", "app") {
		t.Fatalf("restored edges wrong: %v", g.Edges())
	}
	if edits != 3 {
		t.Errorf("edits = %d, want engage + switch + restore", edits)
	}
	if want := []bool{true, true, false}; !equalBools(hooks, want) {
		t.Errorf("OnReroute calls = %v, want %v (engage, switch, restore)", hooks, want)
	}
}

// Equal priorities fall back to declaration order, deterministically:
// every fresh engine over the same reroutes must pick the same one
// when both watches are down in the same sweep.
func TestSupervisorTieBreakIsDeclarationOrder(t *testing.T) {
	for run := 0; run < 5; run++ {
		g := fusionTestGraph(t)
		m := health.NewMonitor(health.Policy{MaxConsecutiveErrors: 1})
		adapter := health.AdapterFunc(func(edit func(*core.Graph) error) error { return edit(g) })
		sup, _ := supervise(t, m, adapter, []health.Reroute{
			{Watch: "gps", Break: fused, Make: wifiBypass, Priority: 2},
			{Watch: "wifi", Break: fused, Make: gpsBypass, Priority: 2},
		})
		boom := errors.New("boom")
		m.NodeResult("gps", boom)
		m.NodeResult("wifi", boom)
		sup.Sweep(t0)
		if !hasEdge(g, "wifi", "app") || hasEdge(g, "gps", "app") || hasEdge(g, "fuse", "app") {
			t.Fatalf("run %d: tie broke to the wrong rule: %v", run, g.Edges())
		}
	}
}

// A reroute edit that fails is reported as a rules action failure and
// leaves the breaker event as it was.
func TestSupervisorReportsFailedReroute(t *testing.T) {
	m := health.NewMonitor(health.Policy{MaxConsecutiveErrors: 1})
	adapter := health.AdapterFunc(func(func(*core.Graph) error) error {
		return errors.New("graph says no")
	})
	sup, eng := supervise(t, m, adapter, []health.Reroute{{Watch: "wifi", Break: fused, Make: gpsBypass}})
	var events []health.Event
	sup.OnEvent(func(e health.Event) { events = append(events, e) })
	var failed []rules.Event
	eng.OnEvent(func(ev rules.Event) {
		if ev.Type == rules.EventActionFailed {
			failed = append(failed, ev)
		}
	})
	var hooks int
	sup.OnReroute(func(bool) { hooks++ })

	m.NodeResult("wifi", errors.New("boom"))
	sup.Sweep(t0)
	if len(events) != 1 || events[0].Up || events[0].Reason != "errors" {
		t.Fatalf("breaker events = %+v, want one down(errors)", events)
	}
	if len(failed) != 1 || !rules.IsReroute(failed[0].Rule) || failed[0].Reason != "apply" || failed[0].Err == nil {
		t.Fatalf("rule events = %+v, want one failed reroute apply", failed)
	}
	if eng.Degraded() || hooks != 0 {
		t.Errorf("degraded=%v hooks=%d after a failed edit", eng.Degraded(), hooks)
	}
}

// A reroute whose edit fails must be retried on a later sweep even when
// no breaker transitions again — the window where a rule held the edge
// and then let go arrives between transitions.
func TestSupervisorRetriesFailedRerouteWithoutTransition(t *testing.T) {
	g := fusionTestGraph(t)
	m := health.NewMonitor(health.Policy{MaxConsecutiveErrors: 1})
	fail := true
	var edits int
	adapter := health.AdapterFunc(func(edit func(*core.Graph) error) error {
		edits++
		if fail {
			return errors.New("edge held elsewhere")
		}
		return edit(g)
	})
	sup, eng := supervise(t, m, adapter, []health.Reroute{{Watch: "wifi", Break: fused, Make: gpsBypass}})

	m.NodeResult("wifi", errors.New("boom"))
	sup.Sweep(t0)
	if edits != 1 || eng.Degraded() {
		t.Fatalf("edits=%d degraded=%v after failed engage", edits, eng.Degraded())
	}

	// No new breaker events — the sweep must still retry the edit.
	fail = false
	if ev := sup.Sweep(t0.Add(time.Second)); len(ev) != 0 {
		t.Fatalf("unexpected breaker events on retry: %+v", ev)
	}
	if edits != 2 {
		t.Fatalf("edits = %d, want the failed reroute retried", edits)
	}
	if !eng.Degraded() || !hasEdge(g, "gps", "app") {
		t.Fatalf("reroute not engaged on retry: %v", g.Edges())
	}

	// Converged: further sweeps are edit-free.
	sup.Sweep(t0.Add(2 * time.Second))
	if edits != 2 {
		t.Fatalf("edits = %d after convergence, want no further edits", edits)
	}
}

// OnSweep hooks run once per sweep, in registration order; a hook
// registered after the engine sees the sweep's own reroute applied.
func TestSupervisorOnSweep(t *testing.T) {
	g := fusionTestGraph(t)
	m := health.NewMonitor(health.Policy{MaxConsecutiveErrors: 1})
	adapter := health.AdapterFunc(func(edit func(*core.Graph) error) error { return edit(g) })
	sup, _ := supervise(t, m, adapter, []health.Reroute{{Watch: "wifi", Break: fused, Make: gpsBypass}})

	var order []string
	var stamps []time.Time
	sup.OnSweep(func(now time.Time) {
		order = append(order, "a")
		stamps = append(stamps, now)
	})
	sup.OnSweep(func(time.Time) { order = append(order, "b") })
	sup.OnSweep(nil) // ignored

	sup.Sweep(t0)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("hook order = %v, want [a b]", order)
	}
	if !stamps[0].Equal(t0) {
		t.Fatalf("hook time = %v, want %v", stamps[0], t0)
	}

	var sawBypass bool
	sup.OnSweep(func(time.Time) { sawBypass = hasEdge(g, "gps", "app") })
	m.NodeResult("wifi", errors.New("boom"))
	sup.Sweep(t0.Add(time.Second))
	if !sawBypass {
		t.Fatal("a later OnSweep hook ran before the engine applied the reroute")
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
