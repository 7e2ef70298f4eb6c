package main

import (
	"fmt"
	"math"
	"time"

	"perpos/internal/building"
	"perpos/internal/core"
	"perpos/internal/geo"
	"perpos/internal/gps"
	"perpos/internal/nmea"
	"perpos/internal/positioning"
	"perpos/internal/trace"
	"perpos/internal/wifi"
)

// epoch is the receiver output period both fixtures are recorded at.
const epoch = time.Second

// fixture is a recorded sensor stream grouped by receiver epoch: the
// NMEA sentences a gps.Receiver emitted in each epoch and, for the
// fusion fixture, the WiFi scan that fell into it. Sessions replay it
// one epoch per source step, so the simulators run once, before any
// timing, and the GPS:WiFi ratio and time order survive replay.
type fixture struct {
	// nmea holds every epoch's sentences back to back, boxed once so
	// replay emits them without allocating; epoch e owns
	// nmea[start[e]:start[e+1]].
	nmea  []any
	start []int32
	// scans[e] is epoch e's *wifi.Scan, or nil when no scan fell into
	// it. nil for the GPS-only fixture.
	scans []any
	times []time.Time

	// monotonic shifts sample times by one fixture length per pass, so
	// a looping replay never moves time backwards (the particle filter
	// integrates over sample time). The GPS-only fixture loops without
	// a shift, which keeps its expected output a pure function of the
	// epoch.
	monotonic bool

	// fixes and sums are prefix counts and hash sums of the positions
	// the fixture's valid GGA sentences encode: epochs [0,e) hold
	// fixes[e] fixes whose posHash values sum to sums[e].
	fixes []int64
	sums  []uint64

	// box bounds every plausible fused position (trace and building,
	// with a margin); nil for the GPS-only fixture.
	box *geoBox

	// Shared inputs of the fusion config's component types.
	building *building.Building
	database *wifi.Database
}

// epochs returns the fixture length.
func (f *fixture) epochs() int { return len(f.times) }

// sentences returns every recorded NMEA sentence in order.
func (f *fixture) sentences() []string {
	out := make([]string, len(f.nmea))
	for i, p := range f.nmea {
		out[i] = p.(string)
	}
	return out
}

// expected returns the number of positions and their hash sum that
// replaying k epochs from offset off must deliver.
func (f *fixture) expected(off, k int) (int64, uint64) {
	n := f.epochs()
	passes, rem := k/n, k%n
	count := int64(passes) * f.fixes[n]
	sum := uint64(passes) * f.sums[n]
	end := off + rem
	if end <= n {
		count += f.fixes[end] - f.fixes[off]
		sum += f.sums[end] - f.sums[off]
	} else {
		count += f.fixes[n] - f.fixes[off] + f.fixes[end-n]
		sum += f.sums[n] - f.sums[off] + f.sums[end-n]
	}
	return count, sum
}

// posHash mixes the fields the output check compares: latitude,
// longitude and time. Sums of it are order-independent, so positions
// from many sessions fold into one checksum.
func posHash(lat, lon float64, t time.Time) uint64 {
	h := mix(math.Float64bits(lat))
	h = mix(h ^ math.Float64bits(lon))
	return mix(h ^ uint64(t.UnixNano()))
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// record steps a producer through the whole of its trace, grouping
// its emissions by epoch.
func record(p core.Producer, each func(e int, s core.Sample)) {
	for e := 0; ; e++ {
		more, _ := p.Step(func(s core.Sample) { each(e, s) })
		if !more {
			return
		}
	}
}

// gpsOrigin anchors the outdoor track (Aarhus, like the evaluation
// building).
var gpsOrigin = geo.Point{Lat: 56.1720, Lon: 10.1900}

// gpsFixture records a gps.Receiver walking trace.OutdoorTrack: about
// 2.5 hours of NMEA at 1 Hz, always outdoors, so HDOP stays far below
// the HDOPFilter cutoff.
func gpsFixture(seed int64) (*fixture, error) {
	tr := trace.OutdoorTrack(gpsOrigin, seed, 48, 250, 1.4, epoch)
	rx := gps.NewReceiver("gps", tr, gps.Config{Seed: seed + 1, ColdStart: 3 * epoch})
	f := &fixture{}
	if err := f.recordGPS(rx); err != nil {
		return nil, err
	}
	return f, nil
}

// fusionFixture records GPS and WiFi along a round trip through the
// evaluation building: trace.Commute in from the west and the same
// path walked back out, so a looping replay stays continuous in space.
// Indoors the receiver's HDOP degrades, which is what the config's
// rules react to.
func fusionFixture(seed int64) (*fixture, error) {
	b := building.Evaluation()
	network := wifi.DefaultDeployment(b)
	in := trace.Commute(b, seed, 120, epoch)
	tr := roundTrip(in)
	f := &fixture{
		monotonic: true,
		building:  b,
		database:  wifi.Survey(network, 0, wifi.SurveyConfig{Seed: seed + 1}),
	}
	rx := gps.NewReceiver("gps", tr, gps.Config{Seed: seed + 2, ColdStart: 3 * epoch})
	if err := f.recordGPS(rx); err != nil {
		return nil, err
	}
	f.scans = make([]any, f.epochs())
	t0 := f.times[0]
	var scanErr error
	record(wifi.NewSensor("wifi", network, tr, 2*epoch, seed+3), func(_ int, s core.Sample) {
		e := int(s.Time.Sub(t0) / epoch)
		switch {
		case e < 0 || e >= len(f.scans):
		case f.scans[e] != nil:
			scanErr = fmt.Errorf("fixture: two scans in epoch %d", e)
		default:
			f.scans[e] = s.Payload
		}
	})
	if scanErr != nil {
		return nil, scanErr
	}
	f.box = newGeoBox(tr, b, 40)
	return f, nil
}

// roundTrip appends the reverse of tr to itself, one epoch on, so the
// walk ends where it started.
func roundTrip(tr *trace.Trace) *trace.Trace {
	pts := append([]trace.Point(nil), tr.Points...)
	last := pts[len(pts)-1].Time
	for i := len(tr.Points) - 2; i >= 0; i-- {
		p := tr.Points[i]
		last = last.Add(epoch)
		p.Time = last
		p.Heading = math.Mod(p.Heading+180, 360)
		pts = append(pts, p)
	}
	return &trace.Trace{Name: tr.Name + "-round-trip", Origin: tr.Origin, Points: pts}
}

// recordGPS captures the receiver's sentences and derives the expected
// positions from them with the public NMEA parser.
func (f *fixture) recordGPS(rx *gps.Receiver) error {
	var t time.Time
	record(rx, func(e int, s core.Sample) {
		for len(f.start) <= e {
			f.start = append(f.start, int32(len(f.nmea)))
			f.times = append(f.times, s.Time)
		}
		if s.Time != f.times[e] {
			t = s.Time
		}
		f.nmea = append(f.nmea, s.Payload.(string))
	})
	if !t.IsZero() {
		return fmt.Errorf("fixture: sample at %v outside its epoch", t)
	}
	if len(f.times) == 0 {
		return fmt.Errorf("fixture: receiver emitted nothing")
	}
	f.start = append(f.start, int32(len(f.nmea)))
	f.fixes = make([]int64, len(f.times)+1)
	f.sums = make([]uint64, len(f.times)+1)
	for e := range f.times {
		f.fixes[e+1], f.sums[e+1] = f.fixes[e], f.sums[e]
		for _, p := range f.nmea[f.start[e]:f.start[e+1]] {
			s, err := nmea.Parse(p.(string))
			if err != nil {
				return fmt.Errorf("fixture: epoch %d: %w", e, err)
			}
			if g, ok := s.(nmea.GGA); ok && g.Quality != nmea.FixInvalid {
				f.fixes[e+1]++
				f.sums[e+1] += posHash(g.Lat, g.Lon, f.times[e])
			}
		}
	}
	return nil
}

// geoBox is a WGS84 bounding box.
type geoBox struct{ minLat, maxLat, minLon, maxLon float64 }

// newGeoBox bounds the trace and the building's ground floor, grown by
// margin metres on every side.
func newGeoBox(tr *trace.Trace, b *building.Building, margin float64) *geoBox {
	box := &geoBox{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
	add := func(p geo.Point) {
		box.minLat, box.maxLat = math.Min(box.minLat, p.Lat), math.Max(box.maxLat, p.Lat)
		box.minLon, box.maxLon = math.Min(box.minLon, p.Lon), math.Max(box.maxLon, p.Lon)
	}
	for _, p := range tr.Points {
		add(p.Global)
	}
	if lo, hi, ok := b.Bounds(0); ok {
		add(b.Projection().ToGlobal(lo))
		add(b.Projection().ToGlobal(hi))
	}
	dLat := margin / 111320
	dLon := margin / (111320 * math.Cos(box.minLat*math.Pi/180))
	box.minLat, box.maxLat = box.minLat-dLat, box.maxLat+dLat
	box.minLon, box.maxLon = box.minLon-dLon, box.maxLon+dLon
	return box
}

func (b *geoBox) contains(p positioning.Position) bool {
	g := p.Global
	return g.Lat >= b.minLat && g.Lat <= b.maxLat && g.Lon >= b.minLon && g.Lon <= b.maxLon
}

// replay is the benchmark's sensor stand-in for one placeholder slot
// of one session: each Step emits one recorded epoch, looping over the
// fixture from the session's own offset. The GPS replay also stamps
// the step's start for the delivery-latency measurement.
type replay struct {
	id    string
	f     *fixture
	wifi  bool
	next  int
	pass  int
	onGPS func() // called at the start of every GPS step
}

var _ core.Producer = (*replay)(nil)

func (r *replay) ID() string { return r.id }

func (r *replay) Spec() core.Spec {
	if r.wifi {
		return core.Spec{Name: "WiFiReplay", Output: core.OutputSpec{Kind: wifi.KindScan}}
	}
	return core.Spec{Name: "NMEAReplay", Output: core.OutputSpec{Kind: gps.KindRaw}}
}

func (r *replay) Process(int, core.Sample, core.Emit) error { return nil }

func (r *replay) Step(emit core.Emit) (bool, error) {
	f, e := r.f, r.next
	t := f.times[e]
	if f.monotonic && r.pass > 0 {
		t = t.Add(time.Duration(r.pass) * time.Duration(f.epochs()) * epoch)
	}
	if r.wifi {
		if s := f.scans[e]; s != nil {
			emit(core.NewSample(wifi.KindScan, s, t))
		}
	} else {
		if r.onGPS != nil {
			r.onGPS()
		}
		for _, p := range f.nmea[f.start[e]:f.start[e+1]] {
			emit(core.NewSample(gps.KindRaw, p, t))
		}
	}
	if r.next++; r.next == f.epochs() {
		r.next = 0
		r.pass++
	}
	return true, nil
}
