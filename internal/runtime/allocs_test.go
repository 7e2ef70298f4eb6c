package runtime

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"testing"

	"perpos/internal/positioning"
)

// TestSaturatedAllocsIndependentOfRunLength drives the saturated
// session set of BenchmarkRuntimeSaturated for two run lengths and
// requires the same allocation count and bytes per source step from
// both. A one-off cost counted into the steps, or a per-step cost that
// grows with run length (a buffer copied whole on every step), shows up
// here as a drift between the two figures.
func TestSaturatedAllocsIndependentOfRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	// A batch is a whole number of the receiver's five-epoch cycle (one
	// satellites-in-view group every fifth epoch), so both run lengths
	// see the same mix of sentences.
	const (
		sessions = 1000
		batch    = 80
	)
	m, err := NewManager(saturatedSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var delivered int
	all := make([]*Session, sessions)
	for i := range all {
		s, err := m.GetOrCreate(fmt.Sprintf("target-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepN(batch); err != nil {
			t.Fatal(err)
		}
		s.Provider().Subscribe(func(positioning.Position) { delivered++ })
		all[i] = s
	}
	// run drives every session through the given number of StepN
	// batches and returns the mallocs and bytes allocated per step.
	run := func(batches int) (allocs, bytes float64) {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for _, s := range all {
			for i := 0; i < batches; i++ {
				if _, err := s.StepN(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		stdruntime.ReadMemStats(&after)
		steps := float64(batches * batch * sessions)
		return float64(after.Mallocs-before.Mallocs) / steps,
			float64(after.TotalAlloc-before.TotalAlloc) / steps
	}
	// Discarded runs first. Pools and history rings reach their steady
	// size in no particular run length, and every session starts its
	// track at the same place and time, so for the first few hundred
	// epochs the sessions move in step and the per-step mix of what
	// they allocate for (speed changes, satellite groups) drifts by
	// about 1%. Once their looping tracks have drifted apart, any
	// window of 80 epochs allocates within 0.3% of any other.
	run(8)
	delivered = 0
	shortAllocs, shortBytes := run(1)
	longAllocs, longBytes := run(4)
	if delivered == 0 {
		t.Fatal("no positions delivered")
	}
	for _, c := range []struct {
		what        string
		short, long float64
	}{{"allocs", shortAllocs, longAllocs}, {"bytes", shortBytes, longBytes}} {
		if math.Abs(c.short-c.long) > 0.005*c.short {
			t.Errorf("%s per step %.3f at 80k steps, %.3f at 320k", c.what, c.short, c.long)
		}
	}
	t.Logf("per step: %.3f allocs, %.1f B at 80k steps; %.3f allocs, %.1f B at 320k",
		shortAllocs, shortBytes, longAllocs, longBytes)
}
