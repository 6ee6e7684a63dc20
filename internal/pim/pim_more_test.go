package pim

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/mtree"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func TestModeString(t *testing.T) {
	if SS.String() != "PIM-SS" || SM.String() != "PIM-SM" {
		t.Error("Mode.String broken")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestDelayOptimalRPDeterministic(t *testing.T) {
	g := topology.ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(5)), 1, 10)
	r := unicast.Compute(g)
	src := topology.ISPSourceHost
	a := DelayOptimalRP(r, src)
	b := DelayOptimalRP(r, src)
	if a != b {
		t.Error("RP choice not deterministic")
	}
	if g.Node(a).Kind != topology.Router {
		t.Error("RP is not a router")
	}
}

func TestTreeLinksAndAccessors(t *testing.T) {
	g := topology.Line(4, true)
	net, _, _ := buildNet(g)
	members := []topology.NodeID{hostOf(g, 2), hostOf(g, 3)}
	s := Build(net, SS, hostOf(g, 0), addr.GroupAddr(0), members, topology.None)
	if s.Channel().S != g.Node(hostOf(g, 0)).Addr {
		t.Error("channel source mismatch")
	}
	if s.RP() != topology.None {
		t.Error("SS session has an RP")
	}
	// Tree links: host->R0->R1->R2->host2 and R2->R3->host3 dedup the
	// shared prefix: 4 + 2 = 6.
	if got := s.TreeLinks(); got != 6 {
		t.Errorf("TreeLinks = %d, want 6", got)
	}
	if len(s.Members()) != 2 {
		t.Errorf("Members = %d", len(s.Members()))
	}
}

func TestBuildValidation(t *testing.T) {
	g := topology.Line(3, true)
	net, _, _ := buildNet(g)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("router source", func() {
		Build(net, SS, 0, addr.GroupAddr(0), nil, topology.None)
	})
	expectPanic("router member", func() {
		Build(net, SS, hostOf(g, 0), addr.GroupAddr(0), []topology.NodeID{1}, topology.None)
	})
	expectPanic("host RP", func() {
		Build(net, SM, hostOf(g, 0), addr.GroupAddr(0),
			[]topology.NodeID{hostOf(g, 2)}, hostOf(g, 1))
	})
}

func TestSMNoMembers(t *testing.T) {
	g := topology.Line(3, true)
	net, _, sim := buildNet(g)
	s := Build(net, SM, hostOf(g, 0), addr.GroupAddr(0), nil, 1)
	// Sending into an empty shared tree reaches the RP and stops.
	s.SendData(nil)
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.TreeLinks() != 0 {
		t.Errorf("empty session has %d tree links", s.TreeLinks())
	}
}

func TestMemberDeliveryCounters(t *testing.T) {
	g := topology.Line(3, true)
	net, _, _ := buildNet(g)
	members := []topology.NodeID{hostOf(g, 2)}
	s := Build(net, SS, hostOf(g, 0), addr.GroupAddr(0), members, topology.None)
	m := s.Member(members[0])
	if _, ok := m.DeliveryAt(0); ok {
		t.Error("delivery reported before send")
	}
	res := probe(net, s, []mtree.Member{m})
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	if m.DeliveryCount(res.Seq) != 1 {
		t.Errorf("count = %d", m.DeliveryCount(res.Seq))
	}
}
