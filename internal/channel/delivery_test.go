package channel

import (
	"fmt"
	"strings"
	"testing"

	"perpos/internal/core"
)

// layerTreeSignature flattens every channel's current tree for
// comparison across delivery modes.
func layerTreeSignature(l *Layer) string {
	var sb strings.Builder
	for _, c := range l.Channels() {
		tree, ok := c.LastTree()
		if !ok {
			fmt.Fprintf(&sb, "%s: <none>\n", c.ID())
			continue
		}
		fmt.Fprintf(&sb, "%s:", c.ID())
		var walk func(n *TreeNode)
		walk = func(n *TreeNode) {
			s := n.Sample.Detach()
			fmt.Fprintf(&sb, " [%s %v @%d]", s.Source, s.Payload, s.Logical)
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(tree.Root)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLayerLazyTreesMatchEager: a layer with no tree consumers records
// only each delivery's root and rebuilds the tree from history when
// LastTree asks; a layer with a tree observer builds every tree at
// delivery time. Both must end with the same trees.
func TestLayerLazyTreesMatchEager(t *testing.T) {
	const steps = 5

	run := func(opts ...LayerOption) string {
		g, _ := buildFig2Graph(t, steps)
		l := NewLayer(g, opts...)
		defer l.Close()
		for i := 0; i < steps; i++ {
			if _, err := g.StepAll(); err != nil {
				t.Fatal(err)
			}
		}
		return layerTreeSignature(l)
	}

	lazy := run()
	eager := run(WithTreeObserver(func(*Channel, *DataTree) {}))
	if lazy != eager {
		t.Errorf("trees diverge:\nlazy:\n%s\neager:\n%s", lazy, eager)
	}
	if !strings.Contains(lazy, "particle-filter") {
		t.Errorf("signature looks empty:\n%s", lazy)
	}
}

// TestLayerTreeObserverForcesEager: a tree observer consumes every
// delivery, so the layer builds a tree for each one even though no
// channel has features attached.
func TestLayerTreeObserverForcesEager(t *testing.T) {
	g, _ := buildFig2Graph(t, 2)
	seen := 0
	l := NewLayer(g, WithTreeObserver(func(*Channel, *DataTree) { seen++ }))
	defer l.Close()
	endpoints := make(map[string]int)
	for _, c := range l.Channels() {
		endpoints[c.Endpoint().ID()]++
	}
	want := 0
	g.Tap(func(id string, s core.Sample) {
		if s.FromFeature == "" {
			want += endpoints[id]
		}
	})
	for i := 0; i < 2; i++ {
		if _, err := g.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	if want == 0 || seen != want {
		t.Errorf("tree observer saw %d trees, want one per delivery (%d)", seen, want)
	}
}

// TestLayerObservesBeforeLaterTaps: the layer registers its tap when it
// is created, so a tap registered afterwards already finds the current
// emission delivered to the channel it ends.
func TestLayerObservesBeforeLaterTaps(t *testing.T) {
	g, _ := buildFig2Graph(t, 3)
	l := NewLayer(g)
	defer l.Close()
	c, ok := l.ChannelInto("particle-filter", 0)
	if !ok {
		t.Fatal("no channel into particle-filter")
	}
	checked := 0
	g.Tap(func(id string, s core.Sample) {
		if id != c.Endpoint().ID() {
			return
		}
		tree, ok := c.LastTree()
		if !ok || tree.Root.Sample.Logical != s.Logical {
			t.Errorf("emission @%d not yet delivered to %s when a later tap ran", s.Logical, c.ID())
		}
		checked++
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if checked != 3 {
		t.Errorf("checked %d endpoint emissions, want 3", checked)
	}
}
