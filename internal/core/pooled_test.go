package core

import (
	"testing"
	"time"
)

// fakePooled implements PooledPayload for the helper tests.
type fakePooled struct {
	retains, releases int
	detached          bool
}

func (f *fakePooled) Retain()            { f.retains++ }
func (f *fakePooled) Release()           { f.releases++ }
func (f *fakePooled) DetachPayload() any { f.detached = true; return "detached" }

func TestPooledPayloadHelpers(t *testing.T) {
	f := &fakePooled{}
	RetainPayload(f)
	if f.retains != 1 {
		t.Errorf("retains = %d, want 1", f.retains)
	}
	ReleasePayload(f)
	if f.releases != 1 {
		t.Errorf("releases = %d, want 1", f.releases)
	}
	if got := DetachPayload(f); got != "detached" {
		t.Errorf("DetachPayload = %v, want detached", got)
	}
	// Non-pooled payloads pass through untouched.
	RetainPayload("plain")
	ReleasePayload(42)
	if got := DetachPayload("plain"); got != "plain" {
		t.Errorf("DetachPayload(plain) = %v", got)
	}
	if got := DetachPayload(nil); got != nil {
		t.Errorf("DetachPayload(nil) = %v", got)
	}
}

func TestSampleDetachDetachesPayload(t *testing.T) {
	f := &fakePooled{}
	s := NewSample(kindRaw, f, time.Now())
	d := s.Detach()
	if !f.detached {
		t.Error("Sample.Detach did not detach the pooled payload")
	}
	if d.Payload != "detached" {
		t.Errorf("detached payload = %v", d.Payload)
	}
}

func TestSinkDetachesPooledPayloads(t *testing.T) {
	g := New()
	f := &fakePooled{}
	src := &SliceSource{
		CompID:  "src",
		Out:     OutputSpec{Kind: kindRaw},
		Samples: []Sample{NewSample(kindRaw, f, time.Now())},
	}
	if _, err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	sink := NewSink("app", []Kind{kindRaw})
	if _, err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "app", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	got := sink.Received()
	if len(got) != 1 {
		t.Fatalf("sink received %d", len(got))
	}
	if got[0].Payload != "detached" {
		t.Errorf("sink retained pooled payload %v, want detached form", got[0].Payload)
	}
}
