package faults

import (
	"math/rand"
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
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
	if p.Len() != 4 || len(evs) != 4 {
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

func TestLinkFlap(t *testing.T) {
	p := NewPlan().LinkFlap(100, 10, 50, 3, 1, 2)
	evs := p.Events()
	if len(evs) != 6 {
		t.Fatalf("flap produced %d events, want 6", len(evs))
	}
	for i := 0; i < 3; i++ {
		down, up := evs[2*i], evs[2*i+1]
		if down.Kind != LinkDown || down.At != eventsim.Time(100+i*50) {
			t.Errorf("cycle %d down = %v", i, down)
		}
		if up.Kind != LinkUp || up.At != down.At+10 {
			t.Errorf("cycle %d up = %v", i, up)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("downFor >= period did not panic")
		}
	}()
	NewPlan().LinkFlap(0, 50, 50, 1, 1, 2)
}

func TestRandomPlanDeterministicAndCoreOnly(t *testing.T) {
	g := topology.Random(topology.RandomConfig{Routers: 10, AvgDegree: 3, Hosts: true},
		rand.New(rand.NewSource(5)))
	a := RandomPlan(rand.New(rand.NewSource(42)), g, 6, 100, 50, 20).Events()
	b := RandomPlan(rand.New(rand.NewSource(42)), g, 6, 100, 50, 20).Events()
	if len(a) != 12 {
		t.Fatalf("plan has %d events, want 12", len(a))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
		if g.Node(a[i].A).Kind != topology.Router || g.Node(a[i].B).Kind != topology.Router {
			t.Errorf("event %d hits a host link: %v", i, a[i])
		}
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
	if in.Applied() != 2 || len(seen) != 2 {
		t.Errorf("applied = %d, observed = %d, want 2/2", in.Applied(), len(seen))
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
	var downed, upped []topology.NodeID
	plan := NewPlan().LinkDown(5, 0, 1).NodeDown(10, 1).NodeUp(20, 1)
	in := NewInjector(net, plan)
	in.OnNodeDown(func(v topology.NodeID) { downed = append(downed, v) })
	in.OnNodeUp(func(v topology.NodeID) { upped = append(upped, v) })
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
	if len(downed) != 1 || downed[0] != 1 || len(upped) != 1 || upped[0] != 1 {
		t.Errorf("hooks: down=%v up=%v", downed, upped)
	}
	// Routing reflects the partial repair: 0 is cut off, 1-2 works.
	if net.Routing().Reachable(0, 2) {
		t.Error("0 still reaches 2 across the dead 0-1 link")
	}
	if !net.Routing().Reachable(1, 2) {
		t.Error("1-2 routing not restored")
	}
}

func TestRoutingDelayKeepsStaleTables(t *testing.T) {
	// With a reconvergence lag, packets sent inside the window still
	// chase the stale route and die on the cut link; after the lag the
	// tables reflect the failure.
	g := topology.Line(3, false)
	net, sim := build(g)
	in := NewInjector(net, NewPlan().LinkDown(10, 1, 2))
	in.SetRoutingDelay(50)
	in.Schedule()

	sim.At(20, func() {
		if net.Routing().Dist(0, 2) != 2 {
			t.Error("tables reconverged before the routing delay elapsed")
		}
		net.Node(0).SendUnicast(&packet.Data{
			Header: packet.Header{Type: packet.TypeData, Dst: g.Node(2).Addr},
			Seq:    1,
		})
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().LinkDownDrops; got != 1 {
		t.Errorf("LinkDownDrops = %d, want 1 (stale-route packet)", got)
	}
	if net.Routing().Reachable(0, 2) {
		t.Error("tables never reconverged after the delay")
	}
}

var names = []string{"A", "B", "C", "D"}
