package faults

import (
	"math/rand"
	"testing"

	"hbh/internal/eventsim"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// routingMatchesScratch asserts the network's incrementally maintained
// routing agrees with a from-scratch recompute over the current graph
// state, for every ordered node pair.
func routingMatchesScratch(t *testing.T, g *topology.Graph, r unicast.Router, ctx string) {
	t.Helper()
	scratch := unicast.Compute(g)
	ids := append(append([]topology.NodeID(nil), g.Routers()...), g.Hosts()...)
	for _, a := range ids {
		for _, b := range ids {
			if r.Reachable(a, b) != scratch.Reachable(a, b) {
				t.Fatalf("%s: reachability %d->%d: incremental %v, scratch %v",
					ctx, a, b, r.Reachable(a, b), scratch.Reachable(a, b))
			}
			if r.Reachable(a, b) && r.Dist(a, b) != scratch.Dist(a, b) {
				t.Fatalf("%s: dist %d->%d: incremental %d, scratch %d",
					ctx, a, b, r.Dist(a, b), scratch.Dist(a, b))
			}
		}
	}
}

// TestGroupDownAtomicCutAndHeal asserts a shared-risk group fails as
// one event — every member link disabled at the planned tick, routing
// reconverged once, matching scratch — and heals the same way.
func TestGroupDownAtomicCutAndHeal(t *testing.T) {
	g := topology.Random(topology.RandomConfig{Routers: 12, AvgDegree: 4, Hosts: true},
		rand.New(rand.NewSource(9)))
	net, sim := build(g)
	_, groups := RandomSRLGPlan(rand.New(rand.NewSource(1)), g, 1, 3, 10, 100, 20)
	grp := groups[0]
	if len(grp.Links) != 3 {
		t.Fatalf("group has %d links, want 3", len(grp.Links))
	}
	plan := NewPlan().GroupDown(10, grp).GroupUp(30, grp)
	NewInjector(net, plan).Schedule()

	sim.At(15, func() {
		for _, l := range grp.Links {
			if g.LinkEnabled(l[0], l[1]) {
				t.Errorf("mid-outage: group member %v-%v still enabled", l[0], l[1])
			}
		}
		routingMatchesScratch(t, g, net.Routing(), "mid-outage")
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, l := range grp.Links {
		if !g.LinkEnabled(l[0], l[1]) {
			t.Errorf("post-heal: group member %v-%v still disabled", l[0], l[1])
		}
	}
	routingMatchesScratch(t, g, net.Routing(), "post-heal")
}

// TestGroupUpRestoresOnlyWhatTheOutageTook asserts group heal follows
// the same partial-restore rule as node restart: a member link that
// was already down for an independent reason is not resurrected.
func TestGroupUpRestoresOnlyWhatTheOutageTook(t *testing.T) {
	g := topology.Line(4, false) // routers 0-1-2-3
	net, sim := build(g)
	grp := Group{Name: "conduit", Links: [][2]topology.NodeID{{0, 1}, {1, 2}}}
	plan := NewPlan().
		LinkDown(5, 0, 1). // independent failure before the group outage
		GroupDown(10, grp).
		GroupUp(20, grp)
	NewInjector(net, plan).Schedule()
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if g.LinkEnabled(0, 1) {
		t.Error("group heal resurrected an independently failed member link")
	}
	if !g.LinkEnabled(1, 2) {
		t.Error("group heal did not restore the link the outage took")
	}
	routingMatchesScratch(t, g, net.Routing(), "after partial heal")
}

// TestRandomSRLGPlanDeterministicAndShape pins the plan generator:
// bit-identical from the seed, groups of the requested size without
// duplicate links, core links only, and the down/up schedule at
// start + i*spacing / + downFor.
func TestRandomSRLGPlanDeterministicAndShape(t *testing.T) {
	g := topology.Random(topology.RandomConfig{Routers: 10, AvgDegree: 3, Hosts: true},
		rand.New(rand.NewSource(5)))
	planA, groupsA := RandomSRLGPlan(rand.New(rand.NewSource(42)), g, 3, 2, 100, 50, 20)
	planB, _ := RandomSRLGPlan(rand.New(rand.NewSource(42)), g, 3, 2, 100, 50, 20)
	evA, evB := planA.Events(), planB.Events()
	if len(evA) != 6 {
		t.Fatalf("plan has %d events, want 6 (3 groups x down+up)", len(evA))
	}
	for i := range evA {
		if evA[i].String() != evB[i].String() {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, evA[i], evB[i])
		}
	}
	for i, grp := range groupsA {
		if len(grp.Links) != 2 {
			t.Errorf("group %d has %d links, want 2", i, len(grp.Links))
		}
		seen := map[[2]topology.NodeID]bool{}
		for _, l := range grp.Links {
			if seen[l] {
				t.Errorf("group %d drew link %v twice", i, l)
			}
			seen[l] = true
			if g.Node(l[0]).Kind != topology.Router || g.Node(l[1]).Kind != topology.Router {
				t.Errorf("group %d contains non-core link %v", i, l)
			}
		}
	}
	for i := 0; i < 3; i++ {
		down, up := evA[2*i], evA[2*i+1]
		wantAt := eventsim.Time(100 + i*50)
		if down.Kind != GroupDown || down.At != wantAt {
			t.Errorf("group %d down = %v, want GROUP-DOWN at %v", i, down, wantAt)
		}
		if up.Kind != GroupUp || up.At != wantAt+20 {
			t.Errorf("group %d up = %v, want GROUP-UP at %v", i, up, wantAt+20)
		}
	}
}

// TestIncrementalRoutingSurvivesSRLGStorm runs a dense schedule of
// overlapping group outages and heals and asserts the incrementally
// maintained tables match scratch at the end — the multi-link
// incremental==scratch guarantee the adversarial engine relies on.
func TestIncrementalRoutingSurvivesSRLGStorm(t *testing.T) {
	g := topology.Random(topology.RandomConfig{Routers: 14, AvgDegree: 4, Hosts: true},
		rand.New(rand.NewSource(3)))
	net, sim := build(g)
	// Overlapping outages: spacing 30 < downFor 50, so up to two groups
	// are down at once.
	plan, _ := RandomSRLGPlan(rand.New(rand.NewSource(8)), g, 5, 3, 10, 30, 50)
	NewInjector(net, plan).Schedule()
	for _, at := range []eventsim.Time{25, 75, 130} {
		at := at
		sim.At(at, func() {
			routingMatchesScratch(t, g, net.Routing(), "mid-storm")
		})
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	routingMatchesScratch(t, g, net.Routing(), "after storm")
}
