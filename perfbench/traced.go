package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"time"

	"perpos/internal/core"
	"perpos/internal/nmea"
	"perpos/internal/obs"
	"perpos/internal/rules"
)

// span is one traced interval. IDs are 1-based positions in the span
// list; a step span is the parent of the node and delivery spans
// recorded during that step.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Step   int64  `json:"step"`
}

// maxSpans bounds the in-memory span list.
const maxSpans = 100000

// tracer times the pipeline from outside, through a core.Graph.Tap on
// every session graph and the provider callbacks. Propagation is
// synchronous and taps fire as a node emits, before its children run,
// so the gap between consecutive emissions of one step is the later
// node's self time (plus the taps registered before this one).
type tracer struct {
	base     time.Time
	step     int64
	stepSpan int
	first    bool // the step's first source emission is still due
	last     time.Time

	self          map[string]*acc
	replay, deliv acc
	emissions     int64
	spans         []span
}

// sources are the fixture-replay slots; a gap that ends at one of
// their emissions (other than a step's first) is the tail of the
// previous sample's processing, which no node owns.
var sources = map[string]bool{"gps": true, "wifi": true}

func newTracer() *tracer {
	return &tracer{base: time.Now(), self: map[string]*acc{}}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) addSpan(name string, start, end time.Time, parent int) int {
	if len(t.spans) >= maxSpans {
		return 0
	}
	t.spans = append(t.spans, span{name, t.ns(start), t.ns(end), parent, t.step})
	return len(t.spans)
}

// beginStep opens a step at the start of a GPS replay step.
func (t *tracer) beginStep(at time.Time) {
	if t.stepSpan > 0 {
		t.spans[t.stepSpan-1].End = t.ns(t.last)
	}
	t.step++
	t.stepSpan = t.addSpan("step", at, at, 0)
	t.first = true
	t.last = at
}

// tap records one emission.
func (t *tracer) tap(id string, s core.Sample) {
	now := time.Now()
	t.emissions++
	gap := now.Sub(t.last)
	name := id
	switch {
	case s.FromFeature != "":
		name = id + "/" + s.FromFeature
	case sources[id] && t.first:
		t.replay.add(gap)
		t.first = false
		name = "replay"
	case sources[id]:
		name = "tail"
	default:
		a := t.self[id]
		if a == nil {
			a = &acc{}
			t.self[id] = a
		}
		a.add(gap)
	}
	t.addSpan(name, t.last, now, t.stepSpan)
	t.last = now
}

// selfNs is a node's mean self time per emission (0 if it never
// emitted).
func (t *tracer) selfNs(id string) float64 {
	if a := t.self[id]; a != nil {
		return a.ns()
	}
	return 0
}

// deliver records a provider callback.
func (t *tracer) deliver(at time.Time) {
	t.deliv.add(at.Sub(t.last))
	t.addSpan("deliver", t.last, at, t.stepSpan)
	t.last = at
}

// attach taps every session graph of e and hooks its step and delivery
// callbacks; the returned function detaches it all.
func (t *tracer) attach(e *env) func() {
	var cancels []func()
	for _, ss := range e.sessions {
		cancels = append(cancels, ss.s.Graph().Tap(t.tap))
	}
	e.m.onStep, e.m.onDeliver = t.beginStep, t.deliver
	return func() {
		for _, c := range cancels {
			c()
		}
		e.m.onStep, e.m.onDeliver = nil, nil
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t.stepSpan > 0 {
		t.spans[t.stepSpan-1].End = t.ns(t.last)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungs is the layer ladder: each adds one cross-cutting layer to the
// one before, so adjacent step-time differences are that layer's cost.
var rungs = []stack{
	{},
	{health: true},
	{health: true, obs: true, checkpoint: true},
	{health: true, obs: true, checkpoint: true, rules: true},
	{health: true, obs: true, checkpoint: true, rules: true, trace: true},
}

// perLayer is the traced run: untraced rounds for the baseline, traced
// rounds for stage self times, the layer ladder, and probes of single
// public calls.
func perLayer(d *driver, st *setupStats, genTime time.Duration, seed int64, budget time.Duration, m metrics) error {
	w, e := d.w, d.e
	var engagements, reroutes int64
	for _, ss := range e.sessions {
		if eng := ss.s.Rules(); eng != nil {
			eng.OnEvent(func(ev rules.Event) {
				if ev.Type == rules.EventEngaged {
					engagements++
				}
			})
		}
		if sup := ss.s.Supervisor(); sup != nil {
			sup.OnReroute(func(engaged bool) {
				if engaged {
					reroutes++
				}
			})
		}
	}

	d.recordLate = true
	plain, err := measure(d, st, budget*3/10, 3)
	d.recordLate = false
	if err != nil {
		return err
	}

	t := newTracer()
	detach := t.attach(e)
	traced, err := measure(d, st, budget/5, 2)
	detach()
	if err != nil {
		return err
	}

	lad, err := runLadder(e.fx, w, budget*2/5)
	if err != nil {
		return err
	}
	defer lad.close()

	var steps, positions, gcs int64
	var stepTime time.Duration
	var pauses []time.Duration
	for _, r := range plain {
		steps += r.steps
		positions += r.positions
		stepTime += r.stepTime
		gcs += int64(r.gcs)
		pauses = append(pauses, r.gcPauses...)
	}
	var tracedPositions int64
	for _, r := range traced {
		tracedPositions += r.positions
	}
	m.set("config.load_ms", median(st.load), "ms")
	m.set("runtime.create_us_per_session", median(st.create), "us")
	m.set("runtime.step_ns", float64(stepTime)/float64(steps), "ns")
	m.set("core.emissions_per_position", float64(t.emissions)/float64(tracedPositions), "count")
	m.set("trace.replay_ns", t.replay.ns(), "ns")
	m.set("gps.parser_ns", t.selfNs("parser"), "ns")
	m.set("gps.interpreter_ns", t.selfNs("interpreter"), "ns")
	m.set("channel.deliver_ns", t.deliv.ns(), "ns")
	m.set("bench.trace_overhead", rate(plain)/rate(traced), "ratio")
	m.set("go.gc_cycles_per_kposition", float64(gcs)*1000/float64(positions), "count")
	m.set("go.gc_pause_p50_us", durQuantile(pauses, 0.5), "us")
	m.set("gen.late_p90_us", durQuantile(d.late, 0.9), "us")
	m.set("gen.fixture_s", genTime.Seconds(), "s")
	m.set("rules.engagements", float64(engagements), "count")
	m.set("health.reroutes", float64(reroutes), "count")

	// The fused stages: measured on this workload when it runs them,
	// otherwise on a short traced fusion probe.
	ft := t
	if t.self["particle-filter"] == nil {
		if ft, err = fusionProbe(seed); err != nil {
			return err
		}
	}
	m.set("filter.particle_ns", ft.selfNs("particle-filter"), "ns")
	m.set("wifi.engine_ns", ft.selfNs("wifi-positioning"), "ns")

	names := []string{"health", "obs", "rules", "trace"}
	for i, name := range names {
		m.set(name+".tap_ns_per_step", lad.stepNs[i+1]-lad.stepNs[i], "ns")
	}

	hub, ckptEnv, ckpts := e.hub, e, d.checkpoints
	if hub == nil {
		hub = lad.envs[2].hub
	}
	if len(ckpts) == 0 {
		ckptEnv, ckpts = lad.envs[2], lad.checkpoints
	}
	us, kb := scrape(hub)
	m.set("obs.scrape_us", us, "us")
	m.set("obs.scrape_kb", kb, "kB")
	m.set("checkpoint.p50_us", durQuantile(ckpts, 0.5), "us")
	m.set("checkpoint.bytes_per_append", float64(ckptEnv.ckptBytes)/float64(ckptEnv.ckptAppends), "B")

	ns, allocs := parseCost(e.fx.sentences())
	m.set("nmea.parse_ns", ns, "ns")
	m.set("nmea.parse_allocs", allocs, "count")

	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	return t.write(path)
}

// rate is the median positions per busy second over rounds.
func rate(rs []roundStats) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = float64(r.positions) / r.busy.Seconds()
	}
	return median(xs)
}

// ladder is the layer ladder's envs and per-rung step times.
type ladder struct {
	envs        []*env
	stepNs      []float64
	checkpoints []time.Duration
}

func (l *ladder) close() {
	for _, e := range l.envs {
		e.close()
	}
}

// runLadder builds one env per rung on the workload's config and runs
// closed-loop rounds on them in turn, so drift on the machine hits
// every rung alike; each rung's step time is its median over rounds.
func runLadder(fx *fixture, w *workload, budget time.Duration) (*ladder, error) {
	lad := &ladder{}
	sessions, batch, round := 20, 50, 250
	if fx.scans != nil {
		sessions, batch, round = 4, 10, 50
	}
	var drivers []*driver
	for _, layers := range rungs {
		spec := envSpec{config: w.spec.config, sessions: sessions, layers: layers, warm: w.spec.warm, closed: true, scratch: w.spec.scratch}
		e, err := newEnv(fx, spec)
		if err != nil {
			lad.close()
			return nil, err
		}
		lad.envs = append(lad.envs, e)
		lw := &workload{batch: batch, round: round}
		if layers.health {
			lw.sweepEvery = batch
		}
		if layers.checkpoint {
			lw.checkpointEvery = round
		}
		drivers = append(drivers, newDriver(lw, e))
	}
	per := make([][]float64, len(rungs))
	end := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(end); rep++ {
		for i, d := range drivers {
			r := d.round()
			per[i] = append(per[i], float64(r.stepTime)/float64(r.steps))
		}
	}
	for i, xs := range per {
		if bad, _, _ := lad.envs[i].check(); bad > 0 || drivers[i].failed > 0 {
			lad.close()
			return nil, fmt.Errorf("ladder rung %d: %d failed operations, %d mismatched outputs", i, drivers[i].failed, bad)
		}
		lad.stepNs = append(lad.stepNs, median(xs))
		lad.checkpoints = append(lad.checkpoints, drivers[i].checkpoints...)
	}
	return lad, nil
}

// fusionProbe traces a few sessions of the fusion config for the
// particle filter's and WiFi engine's self times.
func fusionProbe(seed int64) (*tracer, error) {
	fx, err := fusionFixture(seed)
	if err != nil {
		return nil, err
	}
	w := workloads["fusion-live"]
	spec := w.spec
	spec.sessions, spec.closed, spec.scratch = 4, true, scratchDir
	e, err := newEnv(fx, spec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	t := newTracer()
	defer t.attach(e)()
	d := newDriver(&workload{batch: 10, round: 100}, e)
	d.round()
	if bad, _, _ := e.check(); bad > 0 || d.failed > 0 {
		return nil, fmt.Errorf("fusion probe: %d failed operations, %d mismatched outputs", d.failed, bad)
	}
	return t, nil
}

// scrape times obs.WritePrometheus on a live hub: median µs and size.
func scrape(hub *obs.Metrics) (us, kb float64) {
	var buf bytes.Buffer
	var ds []time.Duration
	for i := 0; i < 21; i++ {
		buf.Reset()
		t := time.Now()
		obs.WritePrometheus(&buf, hub)
		ds = append(ds, time.Since(t))
	}
	return durQuantile(ds, 0.5), float64(buf.Len()) / 1024
}

// parseCost times nmea.Parse over the fixture's sentences: median ns
// and mean allocations per call over a few passes.
func parseCost(sentences []string) (ns, allocs float64) {
	const calls = 100000
	var per []float64
	var m0, m1 stdruntime.MemStats
	for pass := 0; pass < 5; pass++ {
		stdruntime.GC()
		stdruntime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := nmea.Parse(sentences[i%len(sentences)]); err != nil {
				return 0, 0
			}
		}
		per = append(per, float64(time.Since(t))/calls)
		stdruntime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / calls
	}
	return median(per), allocs
}
