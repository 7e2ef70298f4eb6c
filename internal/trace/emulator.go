package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"perpos/internal/core"
)

// RecordedSample is the JSONL wire form of one recorded sensor sample.
type RecordedSample struct {
	Kind    core.Kind       `json:"kind"`
	Time    time.Time       `json:"time"`
	Payload json.RawMessage `json:"payload"`
}

// Recorder taps a graph and writes every sample emitted by one
// component to a JSONL stream — the capture half of the §3.2 workflow
// ("we used some previously recorded sensor data and fed it into our
// PerPos middleware"). Close it before reading the output.
type Recorder struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	err    error
	cancel func()
}

// NewRecorder starts recording samples emitted by componentID into w.
func NewRecorder(g *core.Graph, componentID string, w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	r := &Recorder{bw: bw, enc: json.NewEncoder(bw)}
	r.cancel = g.Tap(func(id string, s core.Sample) {
		if id != componentID || s.FromFeature != "" {
			return
		}
		// Pooled payloads (e.g. *nmea.Raw) have no JSON form of their
		// own; record the detached value a replay decoder can read back.
		payload, err := json.Marshal(core.DetachPayload(s.Payload))
		if err != nil {
			r.fail(fmt.Errorf("record %s payload: %w", s.Kind, err))
			return
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.err != nil {
			return
		}
		if err := r.enc.Encode(RecordedSample{Kind: s.Kind, Time: s.Time, Payload: payload}); err != nil {
			r.err = fmt.Errorf("record %s: %w", s.Kind, err)
		}
	})
	return r
}

func (r *Recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// Close stops recording and flushes the stream, returning the first
// error encountered while recording.
func (r *Recorder) Close() error {
	r.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Decoder converts a recorded JSON payload back into the in-memory
// payload type for one kind.
type Decoder func(json.RawMessage) (any, error)

// StringDecoder decodes payloads recorded from string-valued samples
// (e.g. raw NMEA sentences).
func StringDecoder(raw json.RawMessage) (any, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadRecorded parses a JSONL stream written by a Recorder, decoding
// payloads with the per-kind decoders. Kinds without a decoder keep
// their payload as json.RawMessage.
func ReadRecorded(r io.Reader, decoders map[core.Kind]Decoder) ([]core.Sample, error) {
	dec := json.NewDecoder(r)
	var out []core.Sample
	for {
		var rs RecordedSample
		if err := dec.Decode(&rs); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("recorded sample %d: %w", len(out), err)
		}
		var payload any = rs.Payload
		if d, ok := decoders[rs.Kind]; ok {
			v, err := d(rs.Payload)
			if err != nil {
				return nil, fmt.Errorf("decode %s sample %d: %w", rs.Kind, len(out), err)
			}
			payload = v
		}
		out = append(out, core.NewSample(rs.Kind, payload, rs.Time))
	}
}

// Emulator is a Processing Component that replays previously recorded
// sensor samples and "presents itself as a sensor" (§3.2): it is
// plugged into the processing graph in place of the real sensor, with
// the same output capabilities.
type Emulator struct {
	id      string
	out     core.OutputSpec
	samples []core.Sample
	next    int
	loop    bool
}

var _ core.Producer = (*Emulator)(nil)

// EmulatorOption configures an Emulator.
type EmulatorOption func(*Emulator)

// WithLoop makes the emulator restart from the beginning when the
// recording is exhausted.
func WithLoop() EmulatorOption {
	return func(e *Emulator) { e.loop = true }
}

// NewEmulator returns an emulator emitting the given samples one per
// engine tick, declaring the given output capabilities.
func NewEmulator(id string, out core.OutputSpec, samples []core.Sample, opts ...EmulatorOption) *Emulator {
	e := &Emulator{id: id, out: out, samples: samples}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// ID implements core.Component.
func (e *Emulator) ID() string { return e.id }

// Spec implements core.Component.
func (e *Emulator) Spec() core.Spec {
	return core.Spec{Name: "Emulator", Output: e.out}
}

// Process implements core.Component; emulators have no inputs.
func (e *Emulator) Process(int, core.Sample, core.Emit) error { return nil }

// Step implements core.Producer.
func (e *Emulator) Step(emit core.Emit) (bool, error) {
	if len(e.samples) == 0 {
		return false, nil
	}
	if e.next >= len(e.samples) {
		if !e.loop {
			return false, nil
		}
		e.next = 0
	}
	emit(e.samples[e.next])
	e.next++
	return e.loop || e.next < len(e.samples), nil
}

// Remaining returns how many samples are left in the current pass.
func (e *Emulator) Remaining() int {
	if e.next >= len(e.samples) {
		return 0
	}
	return len(e.samples) - e.next
}
