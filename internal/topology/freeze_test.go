package topology

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
)

func frozenPair() (*Graph, NodeID, NodeID) {
	g := New()
	a := g.AddNode(Router, addr.RouterAddr(0), "a")
	b := g.AddNode(Router, addr.RouterAddr(1), "b")
	g.AddLink(a, b, 3, 5)
	g.Freeze()
	return g, a, b
}

func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on frozen graph did not panic", op)
		}
	}()
	f()
}

func TestFrozenMutatorsPanic(t *testing.T) {
	g, a, b := frozenPair()
	if !g.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	rng := rand.New(rand.NewSource(1))
	mustPanic(t, "AddNode", func() { g.AddNode(Host, addr.ReceiverAddr(0), "h") })
	mustPanic(t, "AddLink", func() { g.AddLink(a, b, 1, 1) })
	mustPanic(t, "SetLinkCost", func() { g.SetLinkCost(a, b, 7, 7) })
	mustPanic(t, "SetLinkEnabled", func() { g.SetLinkEnabled(a, b, false) })
	mustPanic(t, "RandomizeCosts", func() { g.RandomizeCosts(rng, 1, 10) })
	mustPanic(t, "PerturbCosts", func() { g.PerturbCosts(rng, 1, 10, 4) })
	mustPanic(t, "SetBandwidth", func() { g.SetBandwidth(a, b, 10) })
	mustPanic(t, "RandomizeBandwidths", func() { g.RandomizeBandwidths(rng, 10, 100) })
}

// TestFrozenSkipVariantsAllowed: the Skip* rng-replay variants never
// touch the graph, so they must keep working on a frozen base — the
// scenario cache replays them against cached cost-randomized graphs.
func TestFrozenSkipVariantsAllowed(t *testing.T) {
	g, a, b := frozenPair()
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	g.SkipRandomizeCosts(r1, 1, 10)
	g.SkipPerturbCosts(r1, 1, 10, 4)
	// Draw parity: the skip calls consumed exactly the draws the apply
	// path would, i.e. 2 per edge + 3 per edge (base + two skews).
	clone := g.Clone()
	clone.RandomizeCosts(r2, 1, 10)
	clone.PerturbCosts(r2, 1, 10, 4)
	if got, want := r1.Int63(), r2.Int63(); got != want {
		t.Fatalf("skip variants consumed different draw count: next draw %d vs %d", got, want)
	}
	// Reads stay available on a frozen graph.
	if g.Cost(a, b) != 3 || g.Cost(b, a) != 5 {
		t.Fatalf("frozen graph reads broken: %d/%d", g.Cost(a, b), g.Cost(b, a))
	}
	if !g.Connected() || !g.LinkEnabled(a, b) {
		t.Fatal("frozen graph queries broken")
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	g, a, b := frozenPair()
	c := g.Clone()
	if c.Frozen() {
		t.Fatal("Clone returned a frozen graph")
	}
	c.SetLinkCost(a, b, 8, 9)
	c.SetLinkEnabled(a, b, false)
	c.AddNode(Host, addr.ReceiverAddr(1), "h1")
	// The frozen original is untouched.
	if g.Cost(a, b) != 3 || !g.LinkEnabled(a, b) || g.NumNodes() != 2 {
		t.Fatal("mutating a clone leaked into the frozen base")
	}
}
