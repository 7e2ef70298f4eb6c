// Command perfbench is the repository benchmark: it loads the shipped
// pipeline configs through config.Loader, replays recorded NMEA and
// WiFi fixtures generated from -seed into every session, drives the
// sessions from one goroutine, checks what the providers deliver, and
// prints one JSON line of metrics. With -trace 1 it reports per-layer
// metrics from a separately traced run instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	stdruntime "runtime"
	"time"
)

const (
	gpsConfig    = "examples/configs/gps-pipeline.json"
	fusionConfig = "examples/configs/rules-fusion.json"
	// scratchDir holds checkpoint journals and span dumps; it lies in
	// the checkout and is ignored by git.
	scratchDir = ".bench_build"
)

// workloads are the benchmark's inputs; README.md says why each exists.
var workloads = map[string]*workload{
	"gps-bare": {
		fixture:    gpsFixture,
		spec:       envSpec{config: gpsConfig, sessions: 100, warm: 200, closed: true},
		setups:     15,
		batch:      50,
		round:      500,
		probeEdits: 1,
	},
	"gps-stack": {
		fixture: gpsFixture,
		spec: envSpec{config: gpsConfig, sessions: 100, warm: 200, closed: true,
			layers: stack{health: true, obs: true, checkpoint: true, rules: true}},
		setups:          15,
		batch:           50,
		round:           500,
		sweepEvery:      50,
		checkpointEvery: 2500,
		editEvery:       250,
	},
	"fusion-live": {
		fixture: fusionFixture,
		spec: envSpec{config: fusionConfig, sessions: 16, warm: 40,
			layers: stack{health: true, obs: true, rules: true}},
		setups:     21,
		rate:       800,
		round:      800,
		probeEdits: 10,
	},
}

func main() {
	name := flag.String("workload", "", "workload: gps-bare, gps-stack or fusion-live")
	seed := flag.Int64("seed", 1, "fixture seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload gps-bare|gps-stack|fusion-live, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	w.name = *name
	// The open-loop generator measures its spin on this thread.
	stdruntime.LockOSThread()
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's one line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values. A value with no samples behind it
// (NaN or Inf) is reported as 0, which JSON can carry.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

// setupStats holds one value per set-up.
type setupStats struct {
	seconds, heapKBPerSession []float64
	load, create              []float64 // ms, µs per session
}

// build builds one env of the workload and records its set-up time,
// live heap per session and, for the traced run, its load and create
// phases.
func (st *setupStats) build(fx *fixture, spec envSpec) (*env, error) {
	h0 := liveHeap()
	t := time.Now()
	e, err := newEnv(fx, spec)
	if err != nil {
		return nil, err
	}
	st.seconds = append(st.seconds, time.Since(t).Seconds())
	st.heapKBPerSession = append(st.heapKBPerSession,
		float64(int64(liveHeap())-int64(h0))/1024/float64(len(e.sessions)))
	st.load = append(st.load, float64(e.loadTime)/1e6)
	st.create = append(st.create, float64(e.createTime)/1e3/float64(len(e.sessions)))
	return e, nil
}

// discard builds one more env of d's workload, checks what its
// sessions delivered during warm-up, and closes it.
func (st *setupStats) discard(d *driver, fx *fixture) error {
	e, err := st.build(fx, d.w.spec)
	if err != nil {
		return err
	}
	defer e.close()
	d.attempted += int64(len(e.sessions))
	if bad, _, _ := e.check(); bad > 0 {
		d.failed += int64(bad)
		return fmt.Errorf("set-up %d: %d sessions mismatched after warm-up", len(st.seconds), bad)
	}
	return nil
}

// liveHeap forces a GC and returns the live heap.
func liveHeap() uint64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run measures one workload: end-to-end metrics, or with traced the
// per-layer ones.
func run(w *workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	w.spec.scratch = scratchDir
	t := time.Now()
	fx, err := w.fixture(seed)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t)

	// An open-loop workload builds and discards its other set-ups
	// first and keeps the last: its sessions run on wall time, so a
	// set-up between rounds, or before the first, would idle them past
	// the config's source deadlines and the supervisor would reroute.
	// A closed-loop one builds them between its rounds.
	var st setupStats
	d := newDriver(w, nil)
	for w.openLoop() && len(st.seconds) < w.setups-1 {
		if err := st.discard(d, fx); err != nil {
			return nil, err
		}
	}
	e, err := st.build(fx, w.spec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	d.e = e

	m := metrics{}
	if traced {
		err = perLayer(d, &st, genTime, seed, budget, m)
	} else {
		err = endToEnd(d, &st, budget, m)
	}
	if err != nil {
		return nil, err
	}

	mismatched, positions, checksum := e.check()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d positions, checksum %016x, %d mismatched\n",
		w.name, seed, positions, checksum, mismatched)
	return &result{
		Correct:   d.failed == 0 && mismatched == 0,
		Attempted: d.attempted + int64(len(e.sessions)),
		Failed:    d.failed + int64(mismatched),
		Metrics:   m,
	}, nil
}

// measure runs timed rounds until the budget is spent, at least min,
// and between them builds, checks and discards the workload's
// remaining set-ups, spread evenly over the budget. The host's speed drifts from second to second, so
// set-up time is sampled across the run as the rounds are.
func measure(d *driver, st *setupStats, budget time.Duration, min int) ([]roundStats, error) {
	var rs []roundStats
	start := time.Now()
	extra := d.w.setups - len(st.seconds)
	for done := 0; done < extra || len(rs) < min || time.Since(start) < budget; {
		if done < extra && time.Since(start) >= budget*time.Duration(done)/time.Duration(extra) {
			if err := st.discard(d, d.e.fx); err != nil {
				return nil, err
			}
			done++
			continue
		}
		rs = append(rs, d.round())
	}
	return rs, nil
}

// endToEnd measures the metrics a user of the middleware sees.
func endToEnd(d *driver, st *setupStats, budget time.Duration, m metrics) error {
	rs, err := measure(d, st, budget, 3)
	if err != nil {
		return err
	}
	per := func(f func(r roundStats) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return trimmedMean(xs)
	}
	m.set("setup_s", trimmedMean(st.seconds), "s")
	m.set("heap_kb_per_session", trimmedMean(st.heapKBPerSession), "kB")
	m.set("positions_per_s", per(func(r roundStats) float64 { return float64(r.positions) / r.busy.Seconds() }), "1/s")
	m.set("cpu_us_per_position", per(func(r roundStats) float64 { return float64(r.cpu) / 1e3 / float64(r.positions) }), "us")
	m.set("allocs_per_position", per(func(r roundStats) float64 { return float64(r.mallocs) / float64(r.positions) }), "count")
	m.set("bytes_per_position", per(func(r roundStats) float64 { return float64(r.bytes) / float64(r.positions) }), "B")
	m.set("delivery_p50_us", per(func(r roundStats) float64 { return r.p50 }), "us")
	m.set("delivery_p90_us", per(func(r roundStats) float64 { return r.p90 }), "us")
	m.set("edit_p50_us", per(func(r roundStats) float64 { return r.edit50 }), "us")
	m.set("edit_p90_us", per(func(r roundStats) float64 { return r.edit90 }), "us")
	return nil
}
