package faults

import (
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func build(g *topology.Graph) (*netsim.Network, *eventsim.Sim) {
	sim := eventsim.New()
	return netsim.New(sim, g, unicast.Compute(g)), sim
}

func TestPlanOrdering(t *testing.T) {
	p := NewPlan().
		LinkUp(30, 0, 1).
		NodeDown(10, 2).
		LinkDown(10, 0, 1). // same time: insertion order must hold
		NodeUp(20, 2)
	evs := p.Events()
	if len(evs) != 4 {
		t.Fatalf("plan has %d events", len(evs))
	}
	want := []Kind{NodeDown, LinkDown, NodeUp, LinkUp}
	for i, k := range want {
		if evs[i].Kind != k {
			t.Fatalf("event %d = %v, want %v (got order %v)", i, evs[i].Kind, k, evs)
		}
	}
	if evs[0].At != 10 || evs[3].At != 30 {
		t.Errorf("times not sorted: %v", evs)
	}
}

func TestInjectorLinkDownUp(t *testing.T) {
	// Square 0-1-2-3-0: cutting 0-1 forces 0->1 the long way round, the
	// repair restores the direct route. All via scheduled events.
	g := topology.New()
	for i := 0; i < 4; i++ {
		g.AddNode(topology.Router, addr.RouterAddr(i), names[i])
	}
	g.AddLink(0, 1, 1, 1)
	g.AddLink(1, 2, 1, 1)
	g.AddLink(2, 3, 1, 1)
	g.AddLink(3, 0, 1, 1)
	net, sim := build(g)

	var lines []string
	o := obs.New(nil)
	o.AddSink(obs.NewTextSink(func(l string) { lines = append(lines, l) }))
	net.SetObserver(o)
	var seen []Event
	plan := NewPlan().LinkDown(10, 0, 1).LinkUp(20, 0, 1)
	in := NewInjector(net, plan)
	in.OnEvent(func(ev Event) { seen = append(seen, ev) })
	in.Schedule()

	sim.At(15, func() {
		if d := net.Routing().Dist(0, 1); d != 3 {
			t.Errorf("mid-failure dist 0->1 = %d, want 3 (via 3-2)", d)
		}
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if d := net.Routing().Dist(0, 1); d != 1 {
		t.Errorf("post-repair dist 0->1 = %d, want 1", d)
	}
	if len(seen) != 2 {
		t.Errorf("observed %d applied events, want 2", len(seen))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"FAULT LINK-DOWN A-B", "FAULT LINK-UP A-B"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
}

func TestInjectorNodeDownRestoresOnlyItsLinks(t *testing.T) {
	// Line 0-1-2. Link 0-1 fails independently at t=5; node 1 crashes at
	// t=10 (taking only 1-2, the sole enabled incident link) and restarts
	// at t=20. The restart must bring back 1-2 but leave 0-1 down.
	g := topology.Line(3, false)
	net, sim := build(g)
	var downed []topology.NodeID
	plan := NewPlan().LinkDown(5, 0, 1).NodeDown(10, 1).NodeUp(20, 1)
	in := NewInjector(net, plan)
	in.OnNodeDown(func(v topology.NodeID) { downed = append(downed, v) })
	in.Schedule()

	sim.At(15, func() {
		if net.NodeUp(1) {
			t.Error("node 1 still up mid-crash")
		}
		if g.LinkEnabled(1, 2) {
			t.Error("crash left incident link 1-2 enabled")
		}
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !net.NodeUp(1) {
		t.Error("node 1 not restored")
	}
	if !g.LinkEnabled(1, 2) {
		t.Error("restart did not restore the link the crash took down")
	}
	if g.LinkEnabled(0, 1) {
		t.Error("restart resurrected an independently failed link")
	}
	if len(downed) != 1 || downed[0] != 1 {
		t.Errorf("node-down hook saw %v, want [1]", downed)
	}
	// Routing reflects the partial repair: 0 is cut off, 1-2 works.
	if net.Routing().Reachable(0, 2) {
		t.Error("0 still reaches 2 across the dead 0-1 link")
	}
	if !net.Routing().Reachable(1, 2) {
		t.Error("1-2 routing not restored")
	}
}

var names = []string{"A", "B", "C", "D"}
