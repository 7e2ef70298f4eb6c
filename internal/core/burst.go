package core

import "time"

// Batched tap delivery (DESIGN.md §13). The synchronous saturated
// drivers (runtime StepN, replay, cluster pump rounds) emit samples in
// tight bursts; per-emission tap delivery then pays one lock
// acquisition and one observer update per sample inside the channel
// layer and metrics. A Burst buffers tap events on the emitting
// goroutine and hands the whole run to BatchTap observers in one call,
// amortising their internal locking across the burst. Plain TapFuncs
// are never deferred — only observers that explicitly implement
// BatchTap participate.

// TapEvent is one buffered emission: the component that emitted and the
// sample as stamped at emission time.
type TapEvent struct {
	ComponentID string
	Sample      Sample
}

// BatchTap is an emission observer that can absorb a burst of events in
// one call. Registered via Graph.TapBatch.
//
// Outside a burst, Tap is called per emission exactly like a TapFunc.
// Inside a burst, events accumulate and TapBatch receives them in
// emission order; NeedsSync is consulted before each event is buffered —
// returning true flushes everything buffered so far and delivers the
// current event synchronously via Tap, for observers whose downstream
// consumers must see the emission before propagation continues (e.g. an
// eager channel layer feeding Component Features).
type BatchTap interface {
	Tap(componentID string, s Sample)
	TapBatch(events []TapEvent)
	NeedsSync(componentID string, s Sample) bool
}

// TapBatch registers a batch-capable observer for every emission in the
// graph and returns a cancel function. Batch observers are notified
// before plain Tap observers on each emission (and receive buffered
// runs during bursts).
func (g *Graph) TapBatch(bt BatchTap) (cancel func()) {
	g.tapMu.Lock()
	defer g.tapMu.Unlock()
	id := g.batchID
	g.batchID++
	g.batchTaps[id] = bt
	g.rebuildBatchListLocked()
	return func() {
		g.tapMu.Lock()
		defer g.tapMu.Unlock()
		delete(g.batchTaps, id)
		g.rebuildBatchListLocked()
	}
}

// rebuildBatchListLocked snapshots batchTaps into batchList in
// registration order. Called with tapMu held.
func (g *Graph) rebuildBatchListLocked() {
	if len(g.batchTaps) == 0 {
		g.batchList.Store(nil)
		return
	}
	lst := make([]BatchTap, 0, len(g.batchTaps))
	for id := 0; id < g.batchID; id++ {
		if bt, ok := g.batchTaps[id]; ok {
			lst = append(lst, bt)
		}
	}
	g.batchList.Store(&lst)
}

// burstMaxEvents caps the buffered run so a long replay burst cannot
// grow the buffer (or the latency of the first buffered event) without
// bound. One source step emits ~8 samples, so 256 amortises ~32 steps.
const burstMaxEvents = 256

// burstStaleCheckMask throttles the time.Now() deadline probe to every
// 8th buffered event — a burst that stalls between appends is instead
// bounded by the driver calling FlushIfStale between steps.
const burstStaleCheckMask = 7

// Burst batches tap delivery for a run of synchronous emissions. It is
// owned by the goroutine driving propagation: BeginBurst, the emissions
// in between, FlushIfStale and End must all happen on that goroutine,
// and nothing else may propagate through the graph while a burst is
// active (the runtime guarantees this by holding its step lock).
type Burst struct {
	g          *Graph
	taps       []BatchTap // snapshot at BeginBurst
	events     []TapEvent
	flushAfter time.Duration // 0 = no deadline, flush on cap/End only
	lastFlush  time.Time
}

// BeginBurst opens a burst for the caller's upcoming run of synchronous
// emissions. flushAfter bounds how long an event may sit buffered
// (checked between appends and via FlushIfStale); pass 0 for pure
// throughput batching with no deadline.
//
// Returns nil — and buffering is skipped entirely — when the async
// engine is running (its delivery gates are per-message), when a burst
// is already active, or when no BatchTap observers are registered. All
// Burst methods are nil-safe, so callers use the result unconditionally.
func (g *Graph) BeginBurst(flushAfter time.Duration) *Burst {
	if g.running.Load() || g.burst.Load() != nil {
		return nil
	}
	lst := g.batchList.Load()
	if lst == nil {
		return nil
	}
	// Reuse the previous burst's allocation (and its events buffer
	// capacity): drivers open a burst per step batch, and a fresh
	// allocation each time would dominate the hot path this buffering
	// exists to cheapen.
	b := g.burstFree.Swap(nil)
	if b == nil {
		b = &Burst{}
	}
	b.g, b.taps, b.flushAfter = g, *lst, flushAfter
	if flushAfter > 0 {
		b.lastFlush = time.Now()
	}
	g.burst.Store(b)
	return b
}

// add buffers one emission, routing it synchronously instead when any
// batch tap demands it. Called by notifyTaps on the emitting goroutine.
func (b *Burst) add(componentID string, s Sample) {
	for _, bt := range b.taps {
		if bt.NeedsSync(componentID, s) {
			// Drain everything buffered so far, then deliver the current
			// event in order, synchronously, to every batch tap.
			b.flush()
			for _, t := range b.taps {
				t.Tap(componentID, s)
			}
			return
		}
	}
	b.events = append(b.events, TapEvent{ComponentID: componentID, Sample: s})
	if len(b.events) >= burstMaxEvents {
		b.flush()
		return
	}
	if b.flushAfter > 0 && len(b.events)&burstStaleCheckMask == 0 &&
		time.Since(b.lastFlush) >= b.flushAfter {
		b.flush()
	}
}

// flush hands the buffered run to every batch tap in emission order.
func (b *Burst) flush() {
	if b == nil || len(b.events) == 0 {
		return
	}
	for _, bt := range b.taps {
		bt.TapBatch(b.events)
	}
	// Keep the buffer's capacity for the next run, but zero the
	// entries: a buffered sample holds its payload, attribute map and
	// span, and on the string-payload path nothing else releases them,
	// so a stale entry would pin them until overwritten.
	clear(b.events)
	b.events = b.events[:0]
	if b.flushAfter > 0 {
		b.lastFlush = time.Now()
	}
}

// FlushIfStale flushes the buffer when the flush deadline has passed.
// Drivers call it between source steps so a paced burst cannot hold an
// event longer than roughly flushAfter plus one step.
func (b *Burst) FlushIfStale() {
	if b == nil || b.flushAfter <= 0 || len(b.events) == 0 {
		return
	}
	if time.Since(b.lastFlush) >= b.flushAfter {
		b.flush()
	}
}

// End flushes any buffered events and closes the burst, restoring
// per-emission delivery.
func (b *Burst) End() {
	if b == nil {
		return
	}
	b.flush()
	g := b.g
	b.g, b.taps = nil, nil
	g.burst.Store(nil)
	g.burstFree.Store(b)
}
