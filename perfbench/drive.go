package main

import (
	"errors"
	"fmt"
	"os"
	stdruntime "runtime"
	"time"
)

// workload is one benchmark input: a shipped config, its fixture, its
// layers and how the single driver goroutine loads it.
type workload struct {
	name    string
	fixture func(seed int64) (*fixture, error)
	spec    envSpec
	// setups is how many set-ups a run builds, to average them.
	setups int

	// Closed loop: every session steps batch epochs per StepN call,
	// round epochs per round, in turn.
	batch, round int
	// Cadences of the gps-stack side work, in epochs per session
	// (0 = never), multiples of batch. Sessions are staggered by their
	// index, so the work spreads evenly over the batches and every
	// round does the same amount.
	sweepEvery, checkpointEvery, editEvery int

	// Open loop: round steps per round, due at a fixed aggregate rate
	// (steps/s) and spread over the sessions in turn.
	rate float64

	// probeEdits is how many Adapt insert/remove pairs each session
	// gets after every timed round, when editEvery is 0.
	probeEdits int
}

func (w *workload) openLoop() bool { return w.rate > 0 }

// roundStats is what one timed round measured.
type roundStats struct {
	steps, positions int64
	// busy is what positions_per_s divides by: the driving thread's
	// CPU time in the closed loop, the wall time inside session calls
	// in the open loop.
	busy, cpu time.Duration
	// stepTime is the time spent inside StepN/Step calls alone.
	stepTime       time.Duration
	mallocs, bytes uint64
	gcs            uint32
	gcPauses       []time.Duration
	p50, p90       float64 // delivery latency, µs
	edit50, edit90 float64 // Adapt latency, µs
	failed         int64
}

// driver runs timed rounds over one env and keeps what the per-layer
// report needs besides the round stats.
type driver struct {
	w *workload
	e *env

	// k counts open-loop steps across rounds, for session rotation.
	k int

	edits, checkpoints []time.Duration
	// late holds generator lateness: how late each open-loop step was
	// issued after it was due, or, in the closed loop, the gap from one
	// StepN call's return to the next call, which the driver's side work
	// fills. Recorded only while recordLate is set.
	late       []time.Duration
	recordLate bool
	attempted  int64
	failed     int64
}

func newDriver(w *workload, e *env) *driver {
	// Preallocated so the timed rounds do not grow them.
	return &driver{
		w:           w,
		e:           e,
		edits:       make([]time.Duration, 0, 1<<15),
		checkpoints: make([]time.Duration, 0, 1<<14),
		late:        make([]time.Duration, 0, 1<<16),
	}
}

// round runs one timed round: a forced GC, then w.round steps per
// session (closed loop) or in total (open loop), with process CPU,
// allocation and GC counters read around it.
func (d *driver) round() roundStats {
	e := d.e
	if cap(e.m.lat) == 0 {
		n := d.w.round * 2
		if !d.w.openLoop() {
			n = d.w.round * len(e.sessions) * 2
		}
		e.m.lat = make([]time.Duration, 0, n)
	}
	e.m.lat = e.m.lat[:0]
	edits := len(d.edits)
	stdruntime.GC()
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	pos0 := e.m.positions
	cpu0 := cpuTime(processCPU)
	var r roundStats
	var spin time.Duration
	if d.w.openLoop() {
		r.busy, spin = d.open(&r)
	} else {
		// The closed loop's busy time is the driving thread's CPU time.
		// Wall time also counts the spells in which the thread waits
		// for a CPU: on a shared two-CPU host, while another process
		// holds the second CPU, the GC's workers take turns on the
		// driver's. Across ten gps-bare runs, wall time per position
		// ranged over 30% of its median, process CPU time per position
		// over 10%.
		c0 := cpuTime(threadCPU)
		d.closed(&r)
		r.busy = cpuTime(threadCPU) - c0
	}
	r.cpu = cpuTime(processCPU) - cpu0 - spin
	stdruntime.ReadMemStats(&m1)
	r.positions = e.m.positions - pos0
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	for i := m0.NumGC; i < m1.NumGC && i-m0.NumGC < 256; i++ {
		r.gcPauses = append(r.gcPauses, time.Duration(m1.PauseNs[i%256]))
	}
	r.p50 = durQuantile(e.m.lat, 0.5)
	r.p90 = durQuantile(e.m.lat, 0.9)
	if d.w.probeEdits > 0 {
		// Start the probe with no GC cycle in flight, as every round does.
		stdruntime.GC()
	}
	for i := 0; i < d.w.probeEdits; i++ {
		for _, ss := range e.sessions {
			d.edit(ss, &r)
			d.edit(ss, &r)
		}
	}
	r.edit50 = durQuantile(d.edits[edits:], 0.5)
	r.edit90 = durQuantile(d.edits[edits:], 0.9)
	d.failed += r.failed
	return r
}

// closed steps every session round epochs in StepN batches, flat out,
// with the gps-stack side work on its step cadences.
func (d *driver) closed(r *roundStats) {
	w := d.w
	var last time.Time // when the previous StepN call returned
	for b := 0; b < w.round/w.batch; b++ {
		for _, ss := range d.e.sessions {
			d.attempted++
			t := time.Now()
			if d.recordLate && !last.IsZero() && len(d.late) < cap(d.late) {
				d.late = append(d.late, t.Sub(last))
			}
			if _, err := ss.s.StepN(w.batch); err != nil {
				d.fail(r, err)
			}
			last = time.Now()
			r.stepTime += last.Sub(t)
			ss.steps += w.batch
			r.steps += int64(w.batch)
			due := func(every int) bool {
				return every > 0 && (ss.steps/w.batch+ss.idx)%(every/w.batch) == 0
			}
			if due(w.sweepEvery) {
				ss.s.Supervisor().Sweep(time.Now())
			}
			if due(w.checkpointEvery) {
				t := time.Now()
				d.attempted++
				if _, err := ss.s.Checkpoint(); err != nil {
					d.fail(r, err)
				}
				d.checkpoints = append(d.checkpoints, time.Since(t))
			}
			if due(w.editEvery) {
				d.edit(ss, r)
			}
		}
	}
}

// fail counts a failed operation, reporting the first few.
func (d *driver) fail(r *roundStats, err error) {
	if r.failed++; d.failed+r.failed <= 3 {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// edit times one Session.Adapt toggle of the benchmark's filter.
func (d *driver) edit(ss *session, r *roundStats) {
	t := time.Now()
	err := ss.toggleFilter()
	took := time.Since(t)
	if errors.Is(err, errRuleFilter) {
		return
	}
	d.attempted++
	if err != nil {
		d.fail(r, err)
	}
	d.edits = append(d.edits, took)
}

// open issues w.round steps on the fixed schedule, one session at a
// time in turn. Delivery latency counts from when a step was due. It
// returns the time spent in session calls and the CPU the generator
// burnt spinning, which is not the middleware's.
func (d *driver) open(r *roundStats) (busy, spin time.Duration) {
	w := d.w
	gap := time.Duration(float64(time.Second) / w.rate)
	start := time.Now()
	for i := 0; i < w.round; i++ {
		due := start.Add(time.Duration(i) * gap)
		spin += waitUntil(due)
		ss := d.e.sessions[d.k%len(d.e.sessions)]
		d.k++
		ss.stepAt = due
		t := time.Now()
		if d.recordLate && len(d.late) < cap(d.late) {
			d.late = append(d.late, t.Sub(due))
		}
		d.attempted++
		if _, err := ss.s.Step(); err != nil {
			d.fail(r, err)
		}
		r.stepTime += time.Since(t)
		ss.steps++
		r.steps++
		if sup := ss.s.Supervisor(); sup != nil {
			if now := time.Now(); now.Sub(ss.lastSweep) >= sup.Monitor().Policy().Sweep {
				sup.Sweep(now)
				ss.lastSweep = now
			}
		}
		busy += time.Since(t)
	}
	return busy, spin
}

// waitUntil spins until due, returning the CPU time the spin took on
// this (locked) thread. It never sleeps: a sleep on Linux overshoots by
// up to a millisecond, which would show up as delivery latency, and
// waking a locked thread costs CPU the spin accounting cannot see.
func waitUntil(due time.Time) time.Duration {
	if !time.Now().Before(due) {
		return 0
	}
	c0 := cpuTime(threadCPU)
	for time.Now().Before(due) {
	}
	return cpuTime(threadCPU) - c0
}
