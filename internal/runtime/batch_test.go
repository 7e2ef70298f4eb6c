package runtime

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perpos/internal/catalog"
	"perpos/internal/channel"
	"perpos/internal/core"
	"perpos/internal/gps"
	"perpos/internal/positioning"
	"perpos/internal/trace"
)

// loopConfig is the batch-contract fixture: an endless deterministic
// receiver so two sessions created under the same ID replay the same
// sentence stream, with pooling switchable.
func loopConfig(t testing.TB, pooled bool) SessionConfig {
	t.Helper()
	bp, err := catalog.GPSBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	return SessionConfig{
		Blueprint: bp,
		Overrides: func(sessionID string) []core.InstantiateOption {
			seed := seedFrom(sessionID)
			tr := trace.OutdoorTrack(testOrigin, seed, 4, 200, 1.4, time.Second)
			return []core.InstantiateOption{
				core.WithComponentOverride("gps", func(cid string) core.Component {
					var opts []gps.ReceiverOption
					if pooled {
						opts = append(opts, gps.WithPooledOutput())
					}
					return gps.NewReceiver(cid, tr, gps.Config{
						Seed:      seed,
						ColdStart: time.Nanosecond,
						Loop:      true,
					}, opts...)
				}),
			}
		},
		Provider: positioning.ProviderInfo{Technology: "gps", TypicalAccuracy: 5},
		History:  64,
	}
}

// collectPositions subscribes a recorder to the session's provider.
func collectPositions(s *Session) *[]positioning.Position {
	var got []positioning.Position
	s.Provider().Subscribe(func(p positioning.Position) { got = append(got, p) })
	return &got
}

// treeSignature flattens every channel's current data tree into a
// stable string: channel ID, then a pre-order walk of component sources
// and detached payload forms.
func treeSignature(t *testing.T, l *channel.Layer) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range l.Channels() {
		tree, ok := c.LastTree()
		if !ok {
			fmt.Fprintf(&sb, "%s: <none>\n", c.ID())
			continue
		}
		fmt.Fprintf(&sb, "%s:", c.ID())
		var walk func(n *channel.TreeNode)
		walk = func(n *channel.TreeNode) {
			s := n.Sample.Detach()
			fmt.Fprintf(&sb, " [%s %s %v @%d]", s.Source, s.Kind, s.Payload, s.Logical)
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(tree.Root)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBatchedDeliveryMatchesStepByStep is the StepN contract: the same
// session driven through StepN (many steps under one run-lock hold) and
// through single Steps must produce identical position streams and
// identical end-state data trees.
func TestBatchedDeliveryMatchesStepByStep(t *testing.T) {
	const steps = 256

	// String payloads are what every shipped config runs; pooled
	// payloads are the opt-in fast path. Both must step in batches
	// transparently.
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			mBatch, err := NewManager(loopConfig(t, pooled))
			if err != nil {
				t.Fatal(err)
			}
			defer mBatch.Close()
			mSingle, err := NewManager(loopConfig(t, pooled))
			if err != nil {
				t.Fatal(err)
			}
			defer mSingle.Close()

			sBatch, err := mBatch.GetOrCreate("target-contract")
			if err != nil {
				t.Fatal(err)
			}
			sSingle, err := mSingle.GetOrCreate("target-contract")
			if err != nil {
				t.Fatal(err)
			}

			gotBatch := collectPositions(sBatch)
			gotSingle := collectPositions(sSingle)

			for done := 0; done < steps; done += 32 {
				if _, err := sBatch.StepN(32); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < steps; i++ {
				if _, err := sSingle.Step(); err != nil {
					t.Fatal(err)
				}
			}

			if len(*gotBatch) == 0 {
				t.Fatal("no positions delivered")
			}
			if len(*gotBatch) != len(*gotSingle) {
				t.Fatalf("batched delivered %d positions, single-step %d",
					len(*gotBatch), len(*gotSingle))
			}
			for i := range *gotBatch {
				if (*gotBatch)[i] != (*gotSingle)[i] {
					t.Fatalf("position %d differs:\nbatch:  %+v\nsingle: %+v",
						i, (*gotBatch)[i], (*gotSingle)[i])
				}
			}

			sigBatch := treeSignature(t, sBatch.Layer())
			sigSingle := treeSignature(t, sSingle.Layer())
			if sigBatch != sigSingle {
				t.Errorf("data trees diverge:\nbatch:\n%s\nsingle:\n%s", sigBatch, sigSingle)
			}
			if !strings.Contains(sigBatch, "gps.raw") {
				t.Errorf("tree signature looks empty:\n%s", sigBatch)
			}
		})
	}
}

// TestPooledMatchesLegacyReceiver pins payload-pooling transparency:
// with pooling on and off, the same simulated target must yield exactly
// the same positions.
func TestPooledMatchesLegacyReceiver(t *testing.T) {
	const steps = 200

	mPooled, err := NewManager(loopConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	defer mPooled.Close()
	mLegacy, err := NewManager(loopConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	defer mLegacy.Close()

	sPooled, err := mPooled.GetOrCreate("target-pool")
	if err != nil {
		t.Fatal(err)
	}
	sLegacy, err := mLegacy.GetOrCreate("target-pool")
	if err != nil {
		t.Fatal(err)
	}

	gotPooled := collectPositions(sPooled)
	gotLegacy := collectPositions(sLegacy)

	if _, err := sPooled.StepN(steps); err != nil {
		t.Fatal(err)
	}
	if _, err := sLegacy.StepN(steps); err != nil {
		t.Fatal(err)
	}

	if len(*gotPooled) == 0 {
		t.Fatal("no positions delivered")
	}
	if len(*gotPooled) != len(*gotLegacy) {
		t.Fatalf("pooled delivered %d positions, legacy %d",
			len(*gotPooled), len(*gotLegacy))
	}
	for i := range *gotPooled {
		if (*gotPooled)[i] != (*gotLegacy)[i] {
			t.Fatalf("position %d differs:\npooled: %+v\nlegacy: %+v",
				i, (*gotPooled)[i], (*gotLegacy)[i])
		}
	}
}

// countingFeature counts channel deliveries; attaching it makes the
// layer eager.
type countingFeature struct{ seen int }

func (f *countingFeature) FeatureName() string          { return "count-trees" }
func (f *countingFeature) Apply(tree *channel.DataTree) { f.seen++ }

// TestBatchedDeliveryWithEagerFeature: a channel feature makes the layer
// build a tree at every delivery, and under StepN the feature must see
// every tree, the same stream as under single-stepping.
func TestBatchedDeliveryWithEagerFeature(t *testing.T) {
	run := func(batch bool) (int, []positioning.Position) {
		m, err := NewManager(loopConfig(t, true))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s, err := m.GetOrCreate("target-eager")
		if err != nil {
			t.Fatal(err)
		}
		f := &countingFeature{}
		err = s.Adapt(func(g *core.Graph, l *channel.Layer) error {
			chans := l.ChannelsFrom("gps")
			if len(chans) == 0 {
				return fmt.Errorf("no channel from gps")
			}
			return chans[0].AttachFeature(f)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := collectPositions(s)
		if batch {
			if _, err := s.StepN(128); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < 128; i++ {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return f.seen, *got
	}

	seenBatch, posBatch := run(true)
	seenSingle, posSingle := run(false)
	if seenBatch == 0 {
		t.Fatal("eager feature saw no trees")
	}
	if seenBatch != seenSingle {
		t.Errorf("eager feature saw %d trees batched, %d single-stepped",
			seenBatch, seenSingle)
	}
	if len(posBatch) != len(posSingle) {
		t.Fatalf("positions: %d batched vs %d single", len(posBatch), len(posSingle))
	}
	for i := range posBatch {
		if posBatch[i] != posSingle[i] {
			t.Fatalf("position %d differs with eager feature", i)
		}
	}
}
