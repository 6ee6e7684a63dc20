package netsim

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func TestLinkDownDrops(t *testing.T) {
	g := topology.Line(3, false)
	net, sim := build(g)

	// Disable the second hop AFTER routing was computed: the stale
	// tables still steer packets onto it, where they must die as
	// LinkDownDrops (the cut-wire model), not panic.
	g.SetLinkEnabled(1, 2, false)
	delivered := 0
	net.Node(2).SetDeliver(func(ProtoNode, packet.Message) { delivered++ })
	net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if delivered != 0 {
		t.Errorf("delivered = %d over a down link", delivered)
	}
	if st.LinkDownDrops != 1 {
		t.Errorf("LinkDownDrops = %d, want 1", st.LinkDownDrops)
	}
	if st.DataDrops != 1 {
		t.Errorf("DataDrops = %d, want 1", st.DataDrops)
	}

	// After routing reconverges there is no alternate path on a line:
	// the send dies immediately as NoRoute.
	net.Routing().RecomputeLinks([2]topology.NodeID{1, 2})
	net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, 2))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().NoRouteDrops; got != 1 {
		t.Errorf("NoRouteDrops = %d, want 1", got)
	}
}

func TestPartitionNoRouteAfterRecompute(t *testing.T) {
	// The partition contract: sends toward a destination disconnected
	// by a Recompute count NoRouteDrops and never panic, in both
	// directions of the cut.
	g := topology.Line(4, true)
	net, sim := build(g)
	g.SetLinkEnabled(1, 2, false)
	net.Routing().Recompute()

	h0, h3 := g.Hosts()[0], g.Hosts()[3]
	net.Node(h0).SendUnicast(dataTo(g.Node(h3).Addr, 1))
	net.Node(h3).SendUnicast(dataTo(g.Node(h0).Addr, 2))
	// Control traffic across the partition dies the same way.
	net.Node(h0).SendUnicast(&packet.Join{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeJoin,
			Channel: addr.Channel{S: g.Node(h3).Addr, G: addr.GroupAddr(0)},
			Dst:     g.Node(h3).Addr,
		},
		R: g.Node(h0).Addr,
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.NoRouteDrops != 3 {
		t.Errorf("NoRouteDrops = %d, want 3", st.NoRouteDrops)
	}
	if st.DataDrops != 2 {
		t.Errorf("DataDrops = %d, want 2", st.DataDrops)
	}
	// Same-side traffic is unaffected.
	ok := 0
	net.Node(g.Hosts()[1]).SetDeliver(func(ProtoNode, packet.Message) { ok++ })
	net.Node(h0).SendUnicast(dataTo(g.Node(g.Hosts()[1]).Addr, 3))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ok != 1 {
		t.Error("intra-partition delivery broken")
	}
}

func TestNodeDownDrops(t *testing.T) {
	g := topology.Line(3, false)
	net, sim := build(g)
	net.SetNodeUp(1, false)

	delivered := 0
	net.Node(2).SetDeliver(func(ProtoNode, packet.Message) { delivered++ })
	// Transit through the down node dies there.
	net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, 1))
	// The down node originates nothing.
	net.Node(1).SendUnicast(dataTo(g.Node(2).Addr, 2))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("delivered = %d through a down node", delivered)
	}
	if got := net.Stats().NodeDownDrops; got != 2 {
		t.Errorf("NodeDownDrops = %d, want 2", got)
	}

	// Restart: traffic flows again.
	net.SetNodeUp(1, true)
	if !net.NodeUp(1) {
		t.Fatal("NodeUp not reflected")
	}
	net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, 3))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d after restart, want 1", delivered)
	}
}

func TestDataLossModel(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetLossModel(LossModel{Data: 0.25, RNG: rand.New(rand.NewSource(7))})

	const n = 4000
	got := 0
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) { got++ })
	for i := 0; i < n; i++ {
		net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, uint32(i)))
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	rate := 1 - float64(got)/n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("observed data loss rate %.3f, want ~0.25", rate)
	}
	if st.DataLossDrops != n-got {
		t.Errorf("DataLossDrops = %d, want %d", st.DataLossDrops, n-got)
	}
	if st.LossDrops != 0 {
		t.Errorf("LossDrops = %d for data-only loss", st.LossDrops)
	}
	wantRatio := float64(got) / n
	if r := st.DeliveryRatio(); r != wantRatio {
		t.Errorf("DeliveryRatio = %v, want %v", r, wantRatio)
	}
}

func TestStatsDeltaAndRatioWindow(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) {})
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	before := net.Stats()
	// Window: one delivery, one drop on a cut link.
	g.SetLinkEnabled(0, 1, false)
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 2))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	d := net.Stats().Delta(before)
	if d.LinkDownDrops != 1 || d.DataDrops != 1 || d.DataDelivered != 0 {
		t.Errorf("windowed delta = %+v", d)
	}
	if r := d.DeliveryRatio(); r != 0 {
		t.Errorf("windowed DeliveryRatio = %v, want 0", r)
	}
	if r := (Stats{}).DeliveryRatio(); r != 1 {
		t.Errorf("empty DeliveryRatio = %v, want 1", r)
	}
}

func TestSetRoutingSwap(t *testing.T) {
	g := topology.Line(3, false)
	net, _ := build(g)
	// Fresh tables for the same graph swap in fine.
	net.SetRouting(unicast.Compute(g))
	defer func() {
		if recover() == nil {
			t.Error("SetRouting accepted tables for a different graph")
		}
	}()
	net.SetRouting(unicast.Compute(topology.Line(3, false)))
}
