package netsim

import (
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func build(g *topology.Graph) (*Network, *eventsim.Sim) {
	sim := eventsim.New()
	return New(sim, g, unicast.Compute(g)), sim
}

func dataTo(dst addr.Addr, seq uint32) *packet.Data {
	return &packet.Data{
		Header: packet.Header{
			Type: packet.TypeData,
			Channel: addr.Channel{
				S: addr.MustParse("10.9.9.9"), G: addr.GroupAddr(0),
			},
			Dst: dst,
		},
		Seq: seq,
	}
}

func TestUnicastDeliveryAndDelay(t *testing.T) {
	// A chain whose forward direction costs 2,3,4 per hop.
	g := topology.New()
	n0 := g.AddNode(topology.Router, addr.RouterAddr(0), "R0")
	n1 := g.AddNode(topology.Router, addr.RouterAddr(1), "R1")
	n2 := g.AddNode(topology.Router, addr.RouterAddr(2), "R2")
	n3 := g.AddNode(topology.Router, addr.RouterAddr(3), "R3")
	g.AddLink(n0, n1, 2, 1)
	g.AddLink(n1, n2, 3, 1)
	g.AddLink(n2, n3, 4, 1)

	net, sim := build(g)
	var deliveredAt eventsim.Time
	var via ProtoNode
	net.Node(n3).SetDeliver(func(n ProtoNode, msg packet.Message) {
		deliveredAt = sim.Now()
		via = n
	})
	net.Node(n0).SendUnicast(dataTo(g.Node(n3).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if via == nil {
		t.Fatal("packet not delivered")
	}
	if deliveredAt != 9 { // 2+3+4
		t.Errorf("delivered at %v, want 9", deliveredAt)
	}
	st := net.Stats()
	if st.Transmissions != 3 || st.DataCopies != 3 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerInterception(t *testing.T) {
	g := topology.Line(3, false)
	net, sim := build(g)
	seen := 0
	net.Node(1).AddHandler(HandlerFunc(func(ProtoNode, packet.Message, obs.Causal) Verdict {
		seen++
		return Consumed
	}))
	delivered := false
	net.Node(2).SetDeliver(func(ProtoNode, packet.Message) { delivered = true })
	net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("handler saw %d packets, want 1", seen)
	}
	if delivered {
		t.Error("consumed packet still delivered")
	}
	if net.Stats().Consumed != 1 {
		t.Errorf("consumed stat = %d", net.Stats().Consumed)
	}
}

func TestHandlerOrderFirstConsumedWins(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	var order []string
	net.Node(1).AddHandler(HandlerFunc(func(ProtoNode, packet.Message, obs.Causal) Verdict {
		order = append(order, "first")
		return Continue
	}))
	net.Node(1).AddHandler(HandlerFunc(func(ProtoNode, packet.Message, obs.Causal) Verdict {
		order = append(order, "second")
		return Consumed
	}))
	net.Node(1).AddHandler(HandlerFunc(func(ProtoNode, packet.Message, obs.Causal) Verdict {
		order = append(order, "third")
		return Consumed
	}))
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("handler order = %v", order)
	}
}

func TestSendToSelf(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	delivered := false
	net.Node(0).SetDeliver(func(ProtoNode, packet.Message) { delivered = true })
	net.Node(0).SendUnicast(dataTo(g.Node(0).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Error("self-addressed packet not delivered")
	}
	if net.Stats().Transmissions != 0 {
		t.Error("self delivery traversed a link")
	}
}

func TestHopLimit(t *testing.T) {
	g := topology.Line(5, false)
	net, sim := build(g)
	net.SetHopLimit(2)
	delivered := false
	net.Node(4).SetDeliver(func(ProtoNode, packet.Message) { delivered = true })
	net.Node(0).SendUnicast(dataTo(g.Node(4).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("packet beyond hop limit delivered")
	}
	if net.Stats().HopLimitDrops != 1 {
		t.Errorf("hop limit drops = %d, want 1", net.Stats().HopLimitDrops)
	}
}

func TestMulticastDstUnclaimedDropped(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.Node(0).SendUnicast(dataTo(addr.GroupAddr(0), 1)) // multicast dst
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if net.Stats().NoRouteDrops != 1 {
		t.Errorf("NoRouteDrops = %d, want 1", net.Stats().NoRouteDrops)
	}
}

func TestSendDirect(t *testing.T) {
	g := topology.Line(3, false)
	net, sim := build(g)
	// SendDirect pushes a multicast-destination packet over one
	// explicit link; the receiving node's handler claims it.
	got := false
	net.Node(1).AddHandler(HandlerFunc(func(ProtoNode, packet.Message, obs.Causal) Verdict {
		got = true
		return Consumed
	}))
	net.Node(0).SendDirect(obs.Causal{}, 1, dataTo(addr.GroupAddr(0), 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("SendDirect packet not seen by neighbor handler")
	}

	defer func() {
		if recover() == nil {
			t.Error("SendDirect to non-neighbor did not panic")
		}
	}()
	net.Node(0).SendDirect(obs.Causal{}, 2, dataTo(addr.GroupAddr(0), 2))
}

func TestTapSeesEveryTransmission(t *testing.T) {
	g := topology.Line(4, false)
	net, sim := build(g)
	var hops [][2]topology.NodeID
	net.AddTap(func(from, to topology.NodeID, msg packet.Message) {
		hops = append(hops, [2]topology.NodeID{from, to})
	})
	net.Node(0).SendUnicast(dataTo(g.Node(3).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v", hops)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
}

func TestTrace(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	var lines []string
	o := obs.New(nil)
	o.AddSink(obs.NewTextSink(func(l string) { lines = append(lines, l) }))
	net.SetObserver(o)
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) {})
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"SEND", "DELIVER"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
}

func TestResetStats(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if net.Stats().Transmissions == 0 {
		t.Fatal("no transmissions recorded")
	}
	net.ResetStats()
	if net.Stats() != (Stats{}) {
		t.Errorf("stats after reset = %+v", net.Stats())
	}
}

func TestNodeAccessors(t *testing.T) {
	g := topology.Line(2, true)
	net, _ := build(g)
	n := net.Node(0)
	if n.ID() != 0 || n.Name() != "R0" || n.Network() != net {
		t.Error("node accessors broken")
	}
	if net.NodeByAddr(g.Node(1).Addr).ID() != 1 {
		t.Error("NodeByAddr broken")
	}
	if net.Topology() != g {
		t.Error("Topology accessor broken")
	}
	if net.Routing() == nil || net.Sim() == nil {
		t.Error("Routing/Sim accessors broken")
	}
}

// TestDeliveryTap pins the tap contract the invariant checker depends
// on: it fires on handler consumption (consumed=true) and on local
// delivery (consumed=false), and stays silent for packets the network
// drops.
func TestDeliveryTap(t *testing.T) {
	g := topology.Line(3, false)
	net, sim := build(g)

	type hit struct {
		at       topology.NodeID
		consumed bool
	}
	var hits []hit
	net.AddDeliveryTap(func(at topology.NodeID, msg packet.Message, consumed bool) {
		hits = append(hits, hit{at, consumed})
	})

	// Consumed mid-path by a handler.
	net.Node(1).AddHandler(HandlerFunc(func(ProtoNode, packet.Message, obs.Causal) Verdict {
		return Consumed
	}))
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != (hit{1, true}) {
		t.Fatalf("hits after consumption = %v, want [{1 true}]", hits)
	}

	// Locally delivered at the destination (node 2 has no handler).
	hits = nil
	net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, 2))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Node 1's handler consumes everything in transit, so route around
	// it: send from 2's neighbour directly.
	if len(hits) != 1 || hits[0] != (hit{1, true}) {
		t.Fatalf("hits for transit packet = %v, want consumption at node 1", hits)
	}
	hits = nil
	net.Node(1).SendUnicast(dataTo(g.Node(2).Addr, 3)) // own handlers don't run on send
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != (hit{2, false}) {
		t.Fatalf("hits for delivered packet = %v, want [{2 false}]", hits)
	}

	// Dropped at a dead node: no tap.
	hits = nil
	net.SetNodeUp(2, false)
	net.Node(1).SendUnicast(dataTo(g.Node(2).Addr, 4))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.at == 2 {
			t.Fatalf("tap fired for a packet dropped at a dead node: %v", hits)
		}
	}
}

// TestForwardObservedZeroAlloc is the enabled half of the forwarding
// budget: with counters, latency, convergence and a flight recorder
// attached (no sink), a data packet's send, forward and delivery are
// observed without a heap allocation. The disabled half is
// TestForwardDisabledObsZeroAlloc at the repository root.
func TestForwardObservedZeroAlloc(t *testing.T) {
	g := topology.Line(3, false)
	n, sim := build(g)
	n.Node(2).SetDeliver(func(ProtoNode, packet.Message) {})
	o := obs.New(nil)
	o.EnableCounters()
	o.EnableLatency()
	o.EnableConvergence()
	rec := o.EnableRecorder(8)
	n.SetObserver(o)
	msg := dataTo(g.Node(2).Addr, 1)
	hop := func() {
		n.Node(0).SendUnicast(msg)
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rec.Depth(); i++ { // fill the rings, warm the envelope freelist
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("observed forwarding path allocates %.1f allocs/op, want 0", allocs)
	}
}
