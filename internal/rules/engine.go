package rules

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"perpos/internal/core"
	"perpos/internal/health"
)

// EventType classifies a rule lifecycle event.
type EventType int

// Rule lifecycle events.
const (
	// EventEngaged: the rule's action was applied.
	EventEngaged EventType = iota
	// EventDisengaged: the action was reverted (condition cleared,
	// supervisor conflict, or preemption by a group peer — see Reason).
	EventDisengaged
	// EventRolledBack: the probation guard tripped and the action was
	// reverted; the rule is quarantined.
	EventRolledBack
	// EventQuarantined: flap damping benched the rule.
	EventQuarantined
	// EventDeferred: the rule wanted to engage but was blocked by a
	// reroute's claim or an engaged group peer.
	EventDeferred
	// EventActionFailed: an Apply or Revert edit returned an error.
	EventActionFailed
)

// String returns the event type's wire name.
func (t EventType) String() string {
	switch t {
	case EventEngaged:
		return "engaged"
	case EventDisengaged:
		return "disengaged"
	case EventRolledBack:
		return "rolled-back"
	case EventQuarantined:
		return "quarantined"
	case EventDeferred:
		return "deferred"
	case EventActionFailed:
		return "action-failed"
	}
	return "unknown"
}

// Event is one rule lifecycle transition, delivered to OnEvent
// listeners on the sweep goroutine, outside the engine lock.
type Event struct {
	Time   time.Time
	Rule   string
	Type   EventType
	Reason string
	Err    error
}

// RuleStatus is a point-in-time snapshot of one rule's state.
type RuleStatus struct {
	Name           string
	Engaged        bool
	Quarantined    bool
	Engagements    uint64
	Disengagements uint64
	Rollbacks      uint64
	Deferrals      uint64
	LastErr        string
}

// attrProbe holds the most recent observation of one sample attribute,
// written lock-free from the per-emission tap and read by the sweep.
type attrProbe struct {
	key  string
	node string // "" = any node
	bits atomic.Uint64
	seen atomic.Bool
}

// ruleState is the per-rule state machine.
type ruleState struct {
	rule      Rule
	reroute   bool // compiled from a health.Reroute: outranks declared rules
	when      signalRef
	clear     signalRef   // valid when rule.ClearWhen != nil
	guard     signalRef   // valid when rule.Guard != nil
	footprint []core.Edge // action edges, precomputed at construction

	condSince  time.Time // engage condition has held since (zero = not holding)
	clearSince time.Time // clear condition has held since

	engaged        bool
	cooldownUntil  time.Time
	quarantined    bool
	quarUntil      time.Time
	probationUntil time.Time
	guardBase      float64
	deferredNow    bool
	leaving        bool // clear dwell elapsed this sweep; reverted in pass 2

	flapTimes []time.Time // recent transition timestamps within FlapWindow

	engagements    uint64
	disengagements uint64
	rollbacks      uint64
	deferrals      uint64
	lastErr        error
}

// Config wires an Engine.
type Config struct {
	// Rules is the declarative rule set, evaluated in declaration
	// order.
	Rules []Rule
	// Reroutes are the supervision's degradation reroutes. Each compiles
	// into an internal rule named "reroute:<watch>": it engages while
	// the Watch node's breaker is down (signal down:<watch>) by swapping
	// Break for Make, with no dwell, cooldown or flap damping. Reroutes
	// sharing a Break edge form one conflict group ordered by Priority,
	// then declaration order, and every reroute outranks every declared
	// rule. Requires Monitor.
	Reroutes []health.Reroute
	// Adapter applies graph edits (runtime.Session's pause-edit-resume
	// seam). Required when Rules or Reroutes is non-empty.
	Adapter health.Adapter
	// Monitor supplies per-node health signals (errors:, restarts:,
	// silence_ms:, …). Optional; without it those signals read as
	// unknown.
	Monitor *health.Monitor
	// Availability supplies the provider availability ordinal for the
	// "availability" signal. Optional.
	Availability func() float64
}

// Engine is the session's one adaptation controller: it evaluates the
// compiled reroutes and the declared rules against live signals on
// every supervisor sweep, arbitrates between them, and drives each
// rule's hysteresis / cooldown / quarantine / probation state machine.
// Every adaptation edit goes through its adapter. All mutation happens
// on the sweep goroutine; Status, Engaged and Degraded may be called
// from anywhere.
type Engine struct {
	adapter health.Adapter
	mon     *health.Monitor
	avail   func() float64

	probes []*attrProbe

	mu        sync.Mutex
	states    []ruleState // compiled reroutes first, then declared rules
	groups    [][]int     // conflict groups: rule indexes in declaration order
	listeners []func(Event)
	pending   []Event
	lsnapshot []func(Event)
}

// New compiles the reroutes and the rule set. Signal references and
// operators are validated here so a bad rule is a construction error,
// not a silent no-op at sweep time.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Rules)+len(cfg.Reroutes) > 0 && cfg.Adapter == nil {
		return nil, errors.New("rules: adapter required")
	}
	if len(cfg.Reroutes) > 0 && cfg.Monitor == nil {
		return nil, errors.New("rules: reroutes need a monitor")
	}
	e := &Engine{
		adapter: cfg.Adapter,
		mon:     cfg.Monitor,
		avail:   cfg.Availability,
		// Exact capacity: a ruleState is ~0.5 kB and every session
		// carries one engine.
		states: make([]ruleState, 0, len(cfg.Reroutes)+len(cfg.Rules)),
	}
	// Reroutes are keyed by their Break edge, declared rules by their
	// Group name: the key types differ, so the two never share a group.
	groupIdx := make(map[any]int)
	for _, r := range cfg.Reroutes {
		cfg.Monitor.Watch(r.Watch)
		st := ruleState{reroute: true, rule: Rule{
			Name:     reroutePrefix + r.Watch,
			When:     Condition{Signal: "down:" + r.Watch, Op: OpEQ, Value: 1},
			Priority: r.Priority,
			Action:   &SwapAction{Break: r.Break, Make: r.Make},
		}}
		if err := e.add(st, r.Break, groupIdx); err != nil {
			return nil, err
		}
	}
	for i, r := range cfg.Rules {
		r, err := r.normalize(i)
		if err != nil {
			return nil, err
		}
		if err := e.add(ruleState{rule: r}, r.Group, groupIdx); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// add compiles a rule's signals and files it into its conflict group.
func (e *Engine) add(st ruleState, group any, groupIdx map[any]int) error {
	r := st.rule
	var err error
	st.footprint = r.Action.Edges()
	if st.when, err = e.compile(r.When); err != nil {
		return err
	}
	if r.ClearWhen != nil {
		if st.clear, err = e.compile(*r.ClearWhen); err != nil {
			return err
		}
	}
	if r.Guard != nil {
		if st.guard, err = e.compile(r.Guard.Condition); err != nil {
			return err
		}
	}
	gi, ok := groupIdx[group]
	if !ok {
		gi = len(e.groups)
		groupIdx[group] = gi
		e.groups = append(e.groups, nil)
	}
	e.groups[gi] = append(e.groups[gi], len(e.states))
	e.states = append(e.states, st)
	return nil
}

// compile parses a condition's signal and attaches (deduplicating) the
// attribute probe it reads.
func (e *Engine) compile(c Condition) (signalRef, error) {
	ref, key, err := parseSignal(c.Signal)
	if err != nil {
		return ref, err
	}
	if ref.kind == sigAttr {
		for _, p := range e.probes {
			if p.key == key && p.node == ref.node {
				ref.probe = p
				return ref, nil
			}
		}
		p := &attrProbe{key: key, node: ref.node}
		e.probes = append(e.probes, p)
		ref.probe = p
	}
	return ref, nil
}

// NeedsTap reports whether any rule reads sample attributes, i.e.
// whether the owner must register Tap on the graph.
func (e *Engine) NeedsTap() bool { return len(e.probes) > 0 }

// Tap is the per-emission observer feeding attribute probes. It is
// called on engine goroutines for every emission and allocates
// nothing: a key lookup per declared probe and an atomic store.
func (e *Engine) Tap(componentID string, s core.Sample) {
	for _, p := range e.probes {
		if p.node != "" && p.node != componentID {
			continue
		}
		if v, ok := s.FloatAttr(p.key); ok {
			p.bits.Store(math.Float64bits(v))
			p.seen.Store(true)
		}
	}
}

// OnEvent registers a lifecycle listener. Callbacks run serially on the
// sweep goroutine, outside the engine lock.
func (e *Engine) OnEvent(fn func(Event)) {
	if fn == nil {
		return
	}
	e.mu.Lock()
	e.listeners = append(e.listeners, fn)
	e.mu.Unlock()
}

// OnReroute registers a listener for reroute edits that landed: engaged
// is true when a reroute was engaged, including a switch from a group
// peer, and false when the pristine graph was restored. A switch is one
// edit and fires once. Callbacks run like OnEvent listeners.
func (e *Engine) OnReroute(fn func(engaged bool)) {
	if fn == nil {
		return
	}
	e.OnEvent(func(ev Event) {
		if !IsReroute(ev.Rule) {
			return
		}
		switch {
		case ev.Type == EventEngaged:
			fn(true)
		case ev.Type == EventDisengaged && ev.Reason != "preempted":
			// A preempted reroute is the outgoing half of a switch,
			// reported by the peer's engage.
			fn(false)
		}
	})
}

// Status snapshots every rule's state: compiled reroutes first, then
// declared rules, each in declaration order.
func (e *Engine) Status() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, len(e.states))
	for i := range e.states {
		st := &e.states[i]
		out[i] = RuleStatus{
			Name:           st.rule.Name,
			Engaged:        st.engaged,
			Quarantined:    st.quarantined,
			Engagements:    st.engagements,
			Disengagements: st.disengagements,
			Rollbacks:      st.rollbacks,
			Deferrals:      st.deferrals,
		}
		if st.lastErr != nil {
			out[i].LastErr = st.lastErr.Error()
		}
	}
	return out
}

// Engaged reports whether the named rule is currently engaged.
func (e *Engine) Engaged(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.states {
		if e.states[i].rule.Name == name {
			return e.states[i].engaged
		}
	}
	return false
}

// Degraded reports whether any reroute is currently engaged.
func (e *Engine) Degraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.states {
		if e.states[i].reroute && e.states[i].engaged {
			return true
		}
	}
	return false
}

// Sweep runs one evaluation pass at the given time. Call it from the
// supervisor's OnSweep hook (after the breakers have advanced) or drive
// it directly in tests. Not re-entrant: one goroutine at a time.
func (e *Engine) Sweep(now time.Time) {
	e.mu.Lock()

	// Pass 1: evaluate conditions and run the lifecycle of engaged
	// rules — reroute claims, probation guards, clear dwell. Reroutes
	// come first in e.states, so declared rules are checked against the
	// reroute conditions of this same instant.
	for i := range e.states {
		st := &e.states[i]
		st.leaving = false
		if st.quarantined && !now.Before(st.quarUntil) {
			st.quarantined = false
		}

		e.track(&st.condSince, e.holds(&st.when, st.rule.When, now), now)

		if !st.engaged {
			continue
		}

		// A reroute claims the edge → yield immediately. This is not
		// rule churn, so it does not count toward flap damping, and the
		// usual cooldown still applies before re-engaging.
		if e.claimed(st) {
			e.revert(st, now, "supervisor-conflict", false)
			continue
		}

		// Probation guard: roll back a fresh engagement that makes the
		// guarded signal worse.
		if st.rule.Guard != nil && now.Before(st.probationUntil) {
			if v, ok := e.value(&st.guard, now); ok {
				if st.rule.Guard.Delta {
					v -= st.guardBase
				}
				if st.rule.Guard.compare(v) {
					if e.revert(st, now, "guard-tripped", false) == nil {
						st.rollbacks++
						e.quarantine(st, now, "guard-tripped")
						e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventRolledBack, Reason: st.rule.Guard.String()})
					}
					continue
				}
			}
		}

		// Hysteresis: disengage only after the clear condition has
		// held for the full dwell. The revert itself waits for pass 2,
		// where a group peer may take the rule's place in the same edit.
		clear := false
		if st.rule.ClearWhen != nil {
			clear = e.holds(&st.clear, *st.rule.ClearWhen, now)
		} else if v, ok := e.value(&st.when, now); ok {
			// Default clear is the negation of When — but only when the
			// signal is actually observable. Unknown never transitions.
			clear = !st.rule.When.compare(v)
		}
		e.track(&st.clearSince, clear, now)
		st.leaving = !st.clearSince.IsZero() && now.Sub(st.clearSince) >= st.rule.DisengageAfter
	}

	// Pass 2: engagement, arbitrated per conflict group — lowest
	// Priority first, declaration order breaking ties. A waiting rule
	// replaces the engaged peer when it outranks it or when the peer is
	// leaving; otherwise a leaving rule is simply reverted. Reroute
	// groups come first, so declared rules see this sweep's reroutes.
	for _, group := range e.groups {
		cur := -1
		for _, i := range group {
			if e.states[i].engaged {
				cur = i
				break
			}
		}
		best := -1
		for _, i := range group {
			st := &e.states[i]
			if st.engaged {
				continue
			}
			wants := !st.quarantined &&
				!st.condSince.IsZero() && now.Sub(st.condSince) >= st.rule.EngageAfter &&
				!now.Before(st.cooldownUntil)
			if !wants {
				st.deferredNow = false
				continue
			}
			if e.claimed(st) {
				e.defer_(st, now, "supervisor-claim")
				continue
			}
			if best < 0 || st.rule.Priority < e.states[best].rule.Priority {
				best = i
			}
		}
		switch {
		case best < 0:
			if cur >= 0 && e.states[cur].leaving {
				e.revert(&e.states[cur], now, "cleared", true)
			}
		case cur < 0:
			e.engage(&e.states[best], nil, now)
		case e.states[cur].leaving || e.states[best].rule.Priority < e.states[cur].rule.Priority:
			e.engage(&e.states[best], &e.states[cur], now)
		default:
			e.defer_(&e.states[best], now, "group-occupied")
		}
	}

	pending := e.pending
	e.pending = nil
	e.lsnapshot = append(e.lsnapshot[:0], e.listeners...)
	listeners := e.lsnapshot
	e.mu.Unlock()

	for _, ev := range pending {
		for _, fn := range listeners {
			fn(ev)
		}
	}
}

// track updates a dwell anchor: set when the condition starts holding,
// cleared the moment it stops.
func (e *Engine) track(since *time.Time, holding bool, now time.Time) {
	if holding {
		if since.IsZero() {
			*since = now
		}
	} else {
		*since = time.Time{}
	}
}

// holds evaluates a condition; unknown signals never hold.
func (e *Engine) holds(ref *signalRef, c Condition, now time.Time) bool {
	v, ok := e.value(ref, now)
	return ok && c.compare(v)
}

// value reads a compiled signal.
func (e *Engine) value(ref *signalRef, now time.Time) (float64, bool) {
	switch ref.kind {
	case sigAttr:
		if !ref.probe.seen.Load() {
			return 0, false
		}
		return math.Float64frombits(ref.probe.bits.Load()), true
	case sigAvailability:
		if e.avail == nil {
			return 0, false
		}
		return e.avail(), true
	}
	if e.mon == nil {
		return 0, false
	}
	h, ok := e.mon.Health(ref.node)
	if !ok {
		return 0, false
	}
	switch ref.kind {
	case sigErrors:
		return float64(h.Errors), true
	case sigConsecutive:
		return float64(h.ConsecutiveErrors), true
	case sigRestarts:
		return float64(h.Restarts), true
	case sigTrips:
		return float64(h.Trips), true
	case sigSilenceMS:
		if h.LastOutput.IsZero() {
			return 0, false
		}
		return float64(now.Sub(h.LastOutput).Milliseconds()), true
	case sigDown:
		if h.State == health.StateDown {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// claimed reports whether a declared rule's action footprint overlaps
// a reroute that is engaged or whose watch is down: every reroute
// outranks every declared rule.
func (e *Engine) claimed(st *ruleState) bool {
	if st.reroute {
		return false
	}
	for i := range e.states {
		r := &e.states[i]
		if !r.reroute {
			break // reroutes come first
		}
		if !r.engaged && r.condSince.IsZero() {
			continue
		}
		for _, a := range st.footprint {
			for _, b := range r.footprint {
				if a == b {
					return true
				}
			}
		}
	}
	return false
}

// engage applies the rule's action and opens probation. When a group
// peer is engaged (out != nil) the peer's Revert and the rule's Apply
// run in one edit, which unwinds — re-applies the peer — if Apply
// fails, so a switch never passes through the pristine graph. A failed
// Apply starts the cooldown so a permanently failing action is retried
// at cooldown cadence, not every sweep; a failed peer Revert leaves the
// peer engaged, to be retried next sweep.
func (e *Engine) engage(st, out *ruleState, now time.Time) {
	st.deferredNow = false
	edit := st.rule.Action.Apply
	var outErr error
	if out != nil {
		edit = func(g *core.Graph) error {
			if outErr = out.rule.Action.Revert(g); outErr != nil {
				return outErr
			}
			if err := st.rule.Action.Apply(g); err != nil {
				return errors.Join(err, out.rule.Action.Apply(g))
			}
			return nil
		}
	}
	if err := e.adapter.ApplyEdit(edit); err != nil {
		if outErr != nil {
			out.lastErr = err
			e.emit(Event{Time: now, Rule: out.rule.Name, Type: EventActionFailed, Reason: "revert", Err: err})
			return
		}
		st.lastErr = err
		st.cooldownUntil = now.Add(st.rule.Cooldown)
		e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventActionFailed, Reason: "apply", Err: err})
		return
	}
	if out != nil {
		e.disengaged(out, now, "preempted", true)
	}
	st.engaged = true
	st.engagements++
	st.condSince = time.Time{}
	st.clearSince = time.Time{}
	if st.rule.Guard != nil {
		st.probationUntil = now.Add(st.rule.Guard.Probation)
		st.guardBase = 0
		if v, ok := e.value(&st.guard, now); ok {
			st.guardBase = v
		}
	}
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventEngaged, Reason: st.rule.Action.Describe()})
	e.transition(st, now)
}

// revert undoes an engaged rule's action. On failure the rule stays
// engaged and the revert is retried next sweep (actions' Revert is
// idempotent). countFlap marks condition-driven churn; yields to a
// reroute don't count against the rule.
func (e *Engine) revert(st *ruleState, now time.Time, reason string, countFlap bool) error {
	if err := e.adapter.ApplyEdit(st.rule.Action.Revert); err != nil {
		st.lastErr = err
		e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventActionFailed, Reason: "revert", Err: err})
		return err
	}
	e.disengaged(st, now, reason, countFlap)
	return nil
}

// disengaged records a landed revert and starts the cooldown.
func (e *Engine) disengaged(st *ruleState, now time.Time, reason string, countFlap bool) {
	st.engaged = false
	st.disengagements++
	st.cooldownUntil = now.Add(st.rule.Cooldown)
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventDisengaged, Reason: reason})
	if countFlap {
		e.transition(st, now)
	}
}

// transition records one engage/disengage into the flap window and
// quarantines the rule when the budget is blown. Reroutes carry no flap
// damping: they follow their breaker.
func (e *Engine) transition(st *ruleState, now time.Time) {
	if st.reroute {
		return
	}
	cutoff := now.Add(-st.rule.FlapWindow)
	keep := st.flapTimes[:0]
	for _, t := range st.flapTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	st.flapTimes = append(keep, now)
	if len(st.flapTimes) > st.rule.MaxFlaps {
		if st.engaged {
			if e.revert(st, now, "flapping", false) != nil {
				return
			}
		}
		e.quarantine(st, now, "flapping")
	}
}

// quarantine benches the rule and announces it.
func (e *Engine) quarantine(st *ruleState, now time.Time, reason string) {
	st.quarantined = true
	st.quarUntil = now.Add(st.rule.QuarantineFor)
	st.flapTimes = st.flapTimes[:0]
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventQuarantined, Reason: reason})
}

// defer_ announces a blocked engagement once per deferral episode.
func (e *Engine) defer_(st *ruleState, now time.Time, reason string) {
	if st.deferredNow {
		return
	}
	st.deferredNow = true
	st.deferrals++
	e.emit(Event{Time: now, Rule: st.rule.Name, Type: EventDeferred, Reason: reason})
}

// emit queues an event for delivery after the engine lock is released.
func (e *Engine) emit(ev Event) { e.pending = append(e.pending, ev) }
