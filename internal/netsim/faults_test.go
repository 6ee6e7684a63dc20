package netsim

import (
	"reflect"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/packet"
	"hbh/internal/topology"
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
}

// TestStatsDeltaCoversEveryCounter gives every Stats counter a distinct
// value and checks that Delta subtracts each one from its own
// counterpart: a counter left out of zip's hand-written walk, or paired
// with the wrong field, fails here.
func TestStatsDeltaCoversEveryCounter(t *testing.T) {
	var s, prev Stats
	sv, pv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() != reflect.Int {
			t.Fatalf("Stats.%s is a %v; zip walks int counters only", sv.Type().Field(i).Name, sv.Field(i).Kind())
		}
		sv.Field(i).SetInt(int64(1000 * (i + 1)))
		pv.Field(i).SetInt(int64(i + 1))
	}
	d := reflect.ValueOf(s.Delta(prev))
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Int(), int64(999*(i+1)); got != want {
			t.Errorf("Delta of Stats.%s = %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
}
