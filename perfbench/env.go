package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/channel"
	"perpos/internal/checkpoint"
	"perpos/internal/config"
	"perpos/internal/core"
	"perpos/internal/energy"
	"perpos/internal/gps"
	"perpos/internal/health"
	"perpos/internal/obs"
	"perpos/internal/positioning"
	"perpos/internal/rules"
	"perpos/internal/runtime"
)

// stack selects the cross-cutting layers a manager runs on top of its
// config. For the GPS config health and rules mean a health.Policy and
// catalog.StandardRules; for the fusion config they keep the config's
// own supervision and rules blocks, which stack strips otherwise.
type stack struct {
	health, obs, checkpoint, rules, trace bool
}

// gpsPolicy is the supervision the GPS stack runs: error breakers and a
// source watchdog far above any gap the driver leaves between steps.
var gpsPolicy = health.Policy{
	MaxConsecutiveErrors: 3,
	Deadlines:            map[string]time.Duration{"gps": 5 * time.Second},
}

// env is one manager of one config with its sessions, warmed up.
type env struct {
	fx       *fixture
	mgr      *runtime.Manager
	hub      *obs.Metrics
	store    *checkpoint.Store
	dir      string
	sessions []*session
	m        *meter

	// Journal appends and bytes, from the checkpoint store's hook.
	ckptAppends, ckptBytes int64

	loadTime, createTime time.Duration
}

// session is one tracked target: its runtime session, where it started
// in the fixture and what it has delivered.
type session struct {
	s      *runtime.Session
	idx    int
	off    int
	steps  int
	got    int64
	sum    uint64
	stepAt time.Time

	lastSweep time.Time
	// edit is the benchmark's inserted HDOPFilter, nil when absent.
	edit *rules.InsertAction
}

// meter is what the provider callbacks of one env update.
type meter struct {
	positions int64
	outside   int64
	// lat collects delivery latencies while non-nil, up to its capacity.
	lat []time.Duration
	// onStep and onDeliver, when set, are called at the start of every
	// GPS step and at every delivery (traced runs).
	onStep, onDeliver func(at time.Time)
}

// loadPipeline parses a shipped config.
func loadPipeline(path string) (config.Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return config.Pipeline{}, err
	}
	defer f.Close()
	return config.Parse(f)
}

// newLoader returns a loader with the standard component catalog and
// the feature factories the shipped configs name.
func newLoader(fx *fixture) (*config.Loader, error) {
	reg, err := catalog.Standard(catalog.Deps{Building: fx.building, Database: fx.database})
	if err != nil {
		return nil, err
	}
	return &config.Loader{
		Registry: reg,
		Features: map[string]func() core.Feature{
			"hdop":       func() core.Feature { return gps.NewHDOPFeature() },
			"satellites": func() core.Feature { return gps.NewSatellitesFeature() },
			"periodic":   func() core.Feature { return energy.NewPeriodicStrategy(5*time.Second, time.Second) },
		},
	}, nil
}

// envSpec says how to build one env.
type envSpec struct {
	config   string
	sessions int
	layers   stack
	warm     int  // warm-up steps per session
	closed   bool // stamp step starts from the replay (closed loop)
	scratch  string
}

// newEnv parses the config, builds its manager through
// config.Loader.Manager, creates every session and warms it up. The
// load and create phases are timed separately for the traced run.
func newEnv(fx *fixture, spec envSpec) (*env, error) {
	t0 := time.Now()
	p, err := loadPipeline(spec.config)
	if err != nil {
		return nil, err
	}
	e := &env{fx: fx, m: &meter{}}
	if !spec.layers.health {
		p.Supervision = nil
	}
	if !spec.layers.rules {
		p.Rules = nil
	}
	loader, err := newLoader(fx)
	if err != nil {
		return nil, err
	}
	base := runtime.SessionConfig{
		Provider: positioning.ProviderInfo{Technology: "bench", TypicalAccuracy: 4},
		History:  64,
		Trace:    spec.layers.trace,
	}
	byID := map[string]*session{}
	base.Overrides = func(id string) []core.InstantiateOption {
		ss := byID[id]
		gpsSlot := &replay{id: "gps", f: fx, next: ss.off}
		gpsSlot.onGPS = func() {
			if onStep := e.m.onStep; spec.closed || onStep != nil {
				now := time.Now()
				if spec.closed {
					ss.stepAt = now
				}
				if onStep != nil {
					onStep(now)
				}
			}
		}
		opts := []core.InstantiateOption{
			core.WithComponentOverride("gps", func(string) core.Component { return gpsSlot }),
		}
		if fx.scans != nil {
			opts = append(opts, core.WithComponentOverride("wifi", func(string) core.Component {
				return &replay{id: "wifi", f: fx, wifi: true, next: ss.off}
			}))
		}
		return opts
	}
	if spec.layers.health && p.Supervision == nil {
		pol := gpsPolicy
		base.Health = &pol
	}
	if spec.layers.rules && p.Rules == nil {
		base.Rules = catalog.StandardRules()
	}
	if spec.layers.obs {
		e.hub = obs.New()
		base.Observability = e.hub
	}
	if spec.layers.checkpoint {
		e.dir, err = os.MkdirTemp(spec.scratch, "ckpt-")
		if err != nil {
			return nil, err
		}
		hub := e.hub
		e.store, err = checkpoint.Open(e.dir, checkpoint.Options{
			OnAppend: func(id string, n int, d time.Duration, err error) {
				e.ckptAppends++
				e.ckptBytes += int64(n)
				if hub != nil {
					hub.CheckpointAppend(id, n, d, err)
				}
			},
		})
		if err != nil {
			e.close()
			return nil, err
		}
		base.Checkpoints = e.store
	}
	e.mgr, err = loader.Manager(p, base)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("%s: %w", spec.config, err)
	}
	e.loadTime = time.Since(t0)

	t1 := time.Now()
	n := fx.epochs()
	for i := 0; i < spec.sessions; i++ {
		id := fmt.Sprintf("target-%03d", i)
		ss := &session{idx: i, off: i * n / spec.sessions}
		byID[id] = ss
		if ss.s, err = e.mgr.GetOrCreate(id); err != nil {
			e.close()
			return nil, err
		}
		e.sessions = append(e.sessions, ss)
	}
	e.createTime = time.Since(t1)

	for _, ss := range e.sessions {
		e.subscribe(ss)
		if _, err := ss.s.StepN(spec.warm); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		ss.steps += spec.warm
	}
	return e, nil
}

// subscribe counts, checksums and times every position the session's
// provider delivers.
func (e *env) subscribe(ss *session) {
	m, box := e.m, e.fx.box
	ss.s.Provider().Subscribe(func(p positioning.Position) {
		now := time.Now()
		ss.got++
		ss.sum += posHash(p.Global.Lat, p.Global.Lon, p.Time)
		m.positions++
		if m.lat != nil && len(m.lat) < cap(m.lat) {
			m.lat = append(m.lat, now.Sub(ss.stepAt))
		}
		if box != nil && !box.contains(p) {
			m.outside++
		}
		if m.onDeliver != nil {
			m.onDeliver(now)
		}
	})
}

// close evicts every session and removes the checkpoint directory.
func (e *env) close() {
	if e.mgr != nil {
		e.mgr.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// check compares what each GPS session delivered with what its replayed
// epochs encode, returning the number of mismatched sessions and the
// total checksum. Fused outputs are checked against the bounding box
// instead, since rules and reroutes decide which branch delivers.
func (e *env) check() (mismatched int, positions int64, checksum uint64) {
	for _, ss := range e.sessions {
		positions += ss.got
		checksum += ss.sum
		if e.fx.box != nil {
			continue
		}
		want, sum := e.fx.expected(ss.off, ss.steps)
		if want != ss.got || sum != ss.sum {
			mismatched++
		}
	}
	if e.fx.box != nil && (e.m.outside > 0 || positions == 0) {
		mismatched++
	}
	return mismatched, positions, checksum
}

// benchFilter is the §3.1 live edit the benchmark applies through
// Session.Adapt: an HDOPFilter spliced in after the parser, and
// removed again.
const benchFilter = "bench-hdop"

// errRuleFilter reports that a rule has already spliced its own filter
// in after the parser, so the benchmark's edit does not apply.
var errRuleFilter = errors.New("parser feeds a rule's filter")

// toggleFilter inserts the benchmark's HDOPFilter between the parser
// and the interpreter, or removes it again.
func (ss *session) toggleFilter() error {
	return ss.s.Adapt(func(g *core.Graph, _ *channel.Layer) error {
		if ss.edit == nil {
			for _, e := range g.Edges() {
				if e.From == "parser" {
					if e.To != "interpreter" {
						return errRuleFilter
					}
					ss.edit = &rules.InsertAction{
						ID:    benchFilter,
						Build: func(id string) core.Component { return gps.NewHDOPFilter(id, catalog.DefaultMaxHDOP) },
						From:  e.From,
						To:    e.To,
						Port:  e.Port,
					}
					return ss.edit.Apply(g)
				}
			}
			return fmt.Errorf("no edge out of the parser")
		}
		err := ss.edit.Revert(g)
		ss.edit = nil
		return err
	})
}
