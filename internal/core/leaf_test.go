package core

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/igmp"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// lanLine builds a chain of n routers where router `fat` carries
// `extra` additional hosts besides the standard one-per-router leaf.
func lanLine(n, fat, extra int) *topology.Graph {
	g := topology.Line(n, true)
	for i := 0; i < extra; i++ {
		h := g.AddNode(topology.Host, addr.FromOctets(10, 2, 0, byte(i)), "lan")
		g.AddLink(h, topology.NodeID(fat), 1, 1)
	}
	return g
}

// TestLeafAggregation is the paper's IGMP claim as a test: one or many
// receivers behind the same border router produce the SAME multicast
// tree cost on the network links (only the access links differ).
func TestLeafAggregation(t *testing.T) {
	costNetLinks := func(extra int) (int, int) {
		g := lanLine(4, 3, extra)
		h := newQuietHarness(g)
		src := h.source(hostOf(g, 0))

		q := igmp.AttachQuerier(h.net.Node(3), igmp.DefaultConfig())
		AttachLeafAgent(h.net.Node(3), q, h.routers[3], h.cfg)

		// All hosts on router 3 join via IGMP.
		var hosts []*igmp.Host
		for _, hid := range g.Hosts() {
			if g.AttachedRouter(hid) == 3 {
				hosts = append(hosts, igmp.AttachHost(h.net.Node(hid), igmp.DefaultConfig()))
			}
		}
		for i, hh := range hosts {
			hh := hh
			h.sim.At(eventsim.Time(10+10*i), func() { hh.Join(src.Channel()) })
		}
		if err := h.sim.Run(4000); err != nil {
			t.Fatal(err)
		}

		members := make([]mtree.Member, len(hosts))
		for i, hh := range hosts {
			members[i] = hh
		}
		res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) }, members)
		if !res.Complete() {
			t.Fatalf("extra=%d: incomplete delivery: %v", extra, res)
		}
		// Separate network-link copies from access-link copies.
		netCost, accessCost := 0, 0
		for l, c := range res.LinkCopies {
			if g.Node(l.From).Kind == topology.Router && g.Node(l.To).Kind == topology.Router {
				netCost += c
			} else {
				accessCost += c
			}
		}
		return netCost, accessCost
	}

	netOne, accessOne := costNetLinks(0)   // one local member
	netMany, accessMany := costNetLinks(4) // five local members
	if netOne != netMany {
		t.Errorf("network tree cost changed with local membership: %d vs %d", netOne, netMany)
	}
	if accessMany != accessOne+4 {
		t.Errorf("access cost = %d, want %d (one copy per extra member)", accessMany, accessOne+4)
	}
}

// TestLeafSubscriptionLifecycle: the router subscribes when the first
// local member appears and lapses after the last one leaves.
func TestLeafSubscriptionLifecycle(t *testing.T) {
	g := lanLine(3, 2, 1) // router 2 has 2 hosts
	h := newQuietHarness(g)
	src := h.source(hostOf(g, 0))

	q := igmp.AttachQuerier(h.net.Node(2), igmp.DefaultConfig())
	leaf := AttachLeafAgent(h.net.Node(2), q, h.routers[2], h.cfg)

	var hosts []*igmp.Host
	for _, hid := range g.Hosts() {
		if g.AttachedRouter(hid) == 2 {
			hosts = append(hosts, igmp.AttachHost(h.net.Node(hid), igmp.DefaultConfig()))
		}
	}
	if len(hosts) != 2 {
		t.Fatalf("hosts on router 2 = %d, want 2", len(hosts))
	}

	h.sim.At(10, func() { hosts[0].Join(src.Channel()) })
	h.sim.At(20, func() { hosts[1].Join(src.Channel()) })
	if err := h.sim.Run(2500); err != nil {
		t.Fatal(err)
	}
	if !leaf.Subscribed(src.Channel()) {
		t.Fatal("leaf not subscribed after local joins")
	}
	if src.MFT().Get(g.Node(2).Addr) == nil {
		t.Error("router's subscription did not reach the source")
	}
	// Both local members are served: one probe reaches each host once.
	res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) }, []mtree.Member{hosts[0], hosts[1]})
	if !res.Complete() {
		t.Errorf("local members not each served once: %v", res)
	}

	// Both leave: subscription lapses and upstream state expires.
	h.sim.At(h.sim.Now()+10, func() {
		hosts[0].Leave(src.Channel())
		hosts[1].Leave(src.Channel())
	})
	if err := h.sim.Run(h.sim.Now() + 4*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}
	if leaf.Subscribed(src.Channel()) {
		t.Error("leaf still subscribed after all members left")
	}
	if src.MFT().Get(g.Node(2).Addr) != nil {
		t.Error("router's stale subscription survived at the source")
	}
}

// TestLeafOnUnicastOnlyRouter: a border router WITHOUT an HBH engine
// can still serve local members — the leaf agent claims the data
// itself (incremental deployment all the way to the edge).
func TestLeafOnUnicastOnlyRouter(t *testing.T) {
	g := lanLine(3, 2, 0)
	// Attach HBH on routers 0 and 1 only; router 2 is unicast + IGMP.
	h := &harness{
		sim:     eventsim.New(),
		g:       g,
		cfg:     DefaultConfig(),
		routers: map[topology.NodeID]*Router{},
	}
	h.routing = unicast.Compute(g)
	h.net = netsim.New(h.sim, g, h.routing)
	for _, r := range []topology.NodeID{0, 1} {
		h.routers[r] = AttachRouter(h.net.Node(r), h.cfg)
	}
	src := h.source(hostOf(g, 0))

	q := igmp.AttachQuerier(h.net.Node(2), igmp.DefaultConfig())
	AttachLeafAgent(h.net.Node(2), q, nil, h.cfg)
	hostAgent := igmp.AttachHost(h.net.Node(hostOf(g, 2)), igmp.DefaultConfig())

	h.sim.At(10, func() { hostAgent.Join(src.Channel()) })
	if err := h.sim.Run(3000); err != nil {
		t.Fatal(err)
	}
	res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) },
		[]mtree.Member{hostAgent})
	if !res.Complete() {
		t.Fatalf("incomplete via unicast-only border router: %v", res)
	}
}
