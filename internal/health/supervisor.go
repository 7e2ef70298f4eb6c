package health

import (
	"context"
	"sync"
	"time"

	"perpos/internal/core"
)

// Adapter applies a structural edit to a pipeline's graph. The graph is
// frozen while its async runner is active, so the owner (in practice
// runtime.Session) must pause propagation, apply the edit, refresh the
// positioning layer and resume — ApplyEdit encapsulates that dance.
type Adapter interface {
	ApplyEdit(edit func(*core.Graph) error) error
}

// AdapterFunc adapts a function to the Adapter interface.
type AdapterFunc func(edit func(*core.Graph) error) error

// ApplyEdit implements Adapter.
func (f AdapterFunc) ApplyEdit(edit func(*core.Graph) error) error { return f(edit) }

// Reroute is a degradation rule: when the watched node's breaker opens,
// Break is disconnected and Make is connected — the PSL adaptation that
// routes the pipeline around the failed branch. When the node recovers,
// the edit is reversed, restoring the full graph.
//
// Reroutes are applied by the rules engine (rules.Config.Reroutes) on
// the supervisor's sweep, ahead of every declared rule. Reroutes
// sharing the same Break edge form a conflict group: alternative
// routings of the same spot in the pipeline, so at most one of them is
// engaged at a time. Within a group the best applicable reroute —
// lowest Priority first, declaration order breaking ties — is engaged,
// and a switch between reroutes is one atomic edit. That gives
// multi-failure scenarios a deterministic, ordered fallback: with both
// fusion branches down, the group's top-priority reroute stays engaged
// rather than two fighting over the edge.
type Reroute struct {
	// Watch is the node whose breaker drives this rule.
	Watch string
	// Break is the edge removed while degraded (typically the failed
	// branch's hand-off into the fusion component, or the fusion
	// component's own output edge). Also the conflict-group key.
	Break core.Edge
	// Make is the edge added while degraded (the surviving branch's
	// bypass to the sink).
	Make core.Edge
	// Priority orders rules within a conflict group: lower engages
	// first when several rules' watches are down simultaneously. Equal
	// priorities fall back to declaration order, so the zero value keeps
	// the pre-priority behaviour deterministic.
	Priority int
}

// Supervisor runs the monitor's breakers on a clock: a sweep goroutine
// periodically advances them, notifies listeners of every transition
// and then runs the OnSweep hooks. The rules engine rides that hook and
// applies every adaptation edit, the degradation reroutes included.
// Listener callbacks and hooks run on the supervisor's own goroutine —
// never on engine goroutines — so an edit can safely stop and restart
// the runner.
type Supervisor struct {
	mon *Monitor

	mu        sync.Mutex
	listeners []func(Event)
	onReroute []func(engaged bool)
	onSweep   []func(now time.Time)
	sweepBuf  []func(now time.Time) // reused snapshot; Sweep is single-goroutine
	cancel    context.CancelFunc
	done      chan struct{}
}

// NewSupervisor wires a supervisor over the monitor.
func NewSupervisor(mon *Monitor) *Supervisor {
	return &Supervisor{mon: mon}
}

// Monitor returns the underlying monitor.
func (s *Supervisor) Monitor() *Monitor { return s.mon }

// OnEvent registers a listener for node transitions. Register before
// Start; callbacks run serially on the supervisor goroutine (or the
// Sweep caller).
func (s *Supervisor) OnEvent(fn func(Event)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.listeners = append(s.listeners, fn)
	s.mu.Unlock()
}

// OnReroute registers a listener for reroute edits that landed:
// engaged is true when a reroute was engaged or switched, false when the
// pristine graph was restored. Unlike OnEvent it fires only when an
// edit actually landed, making it the natural seam for counting
// degradation churn. Register before Start; callbacks run on the
// supervisor goroutine (or the Sweep caller).
func (s *Supervisor) OnReroute(fn func(engaged bool)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.onReroute = append(s.onReroute, fn)
	s.mu.Unlock()
}

// Rerouted reports one landed reroute edit to the OnReroute listeners.
// The controller that applies reroutes calls it from inside a sweep.
func (s *Supervisor) Rerouted(engaged bool) {
	s.mu.Lock()
	hooks := s.onReroute
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(engaged)
	}
}

// OnSweep registers a hook that runs at the end of every sweep, after
// breakers have advanced and listeners have been notified — the seam
// the rules engine rides, so rule evaluation always sees the breaker
// states of the same instant. Hooks run serially on the supervisor
// goroutine (or the Sweep caller) and may apply edits. Register before
// Start.
func (s *Supervisor) OnSweep(fn func(now time.Time)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.onSweep = append(s.onSweep, fn)
	s.mu.Unlock()
}

// Start launches the sweep loop. Stop must be called to release it.
func (s *Supervisor) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done != nil {
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	done := make(chan struct{})
	s.done = done
	period := s.mon.Policy().Sweep
	go func() {
		defer close(done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-ticker.C:
				s.Sweep(now)
			}
		}
	}()
}

// Stop halts the sweep loop and waits for it to exit.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.cancel, s.done = nil, nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Sweep runs one supervision pass at the given time: advance breakers,
// notify listeners, run the OnSweep hooks. Exposed so tests (and
// synchronous drivers) can supervise without the background goroutine.
func (s *Supervisor) Sweep(now time.Time) []Event {
	events := s.mon.Advance(now)
	if len(events) > 0 {
		s.mu.Lock()
		listeners := make([]func(Event), len(s.listeners))
		copy(listeners, s.listeners)
		s.mu.Unlock()
		for _, e := range events {
			for _, fn := range listeners {
				fn(e)
			}
		}
	}
	s.mu.Lock()
	s.sweepBuf = append(s.sweepBuf[:0], s.onSweep...)
	hooks := s.sweepBuf
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
	return events
}
