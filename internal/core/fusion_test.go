package core

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/softstate"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestNoFusionIsUnicastStar: the A1 ablation semantics — with fusion
// disabled, routers never branch and the source unicasts one copy per
// member along shortest paths.
func TestNoFusionIsUnicastStar(t *testing.T) {
	g := topology.Line(4, true)
	cfg := DefaultConfig()
	cfg.EnableFusion = false
	h := &harness{
		sim:     eventsim.New(),
		g:       g,
		cfg:     cfg,
		routers: map[topology.NodeID]*Router{},
	}
	h.routing = unicast.Compute(g)
	h.net = netsim.New(h.sim, g, h.routing)
	for _, r := range g.Routers() {
		h.routers[r] = AttachRouter(h.net.Node(r), h.cfg)
	}

	src := h.source(hostOf(g, 0))
	r2 := h.receiver(hostOf(g, 2), src.Channel())
	r3 := h.receiver(hostOf(g, 3), src.Channel())
	h.sim.At(10, r2.Join)
	h.sim.At(30, r3.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r2, r3})
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	// Star: copy to r2 (4 links) + copy to r3 (5 links) = 9, with the
	// shared prefix (3 links) carrying two copies.
	if res.Cost != 9 {
		t.Errorf("cost = %d, want 9 (unicast star)\n%s", res.Cost, res.FormatTree(g))
	}
	if res.MaxLinkCopies() != 2 {
		t.Errorf("max copies = %d, want 2", res.MaxLinkCopies())
	}
	// Delays still shortest-path.
	for _, m := range []mtree.Member{r2, r3} {
		want := eventsim.Time(h.routing.Dist(hostOf(g, 0), g.MustByAddr(m.Addr())))
		if res.Delays[m.Addr()] != want {
			t.Errorf("%v delay = %v, want %v", m.Addr(), res.Delays[m.Addr()], want)
		}
	}
	// And no router became a branching node.
	for id, r := range h.routers {
		if r.MFTFor(src.Channel()) != nil {
			t.Errorf("router %d branched despite fusion ablation", id)
		}
	}
}

// TestFusionFromUnknownSenderIgnored: a fusion naming receivers the
// node does not hold is forwarded (or dropped at the addressee), never
// applied.
func TestFusionFromUnknownSenderIgnored(t *testing.T) {
	g := topology.Line(3, true)
	h := newHarness(t, g)
	src := h.source(hostOf(g, 0))
	r := h.receiver(hostOf(g, 2), src.Channel())
	h.sim.At(10, r.Join)
	h.converge(t)

	before := src.MFT().Len()
	// Forge a fusion to the source naming a receiver it doesn't know.
	forged := &packet.Fusion{
		Header: packet.Header{
			Proto:   packet.ProtoHBH,
			Type:    packet.TypeFusion,
			Channel: src.Channel(),
			Src:     g.Node(1).Addr,
			Dst:     src.Channel().S,
		},
		Bp: g.Node(1).Addr,
		Rs: []addr.Addr{addr.MustParse("10.1.7.7")}, // nobody
	}
	h.net.Node(1).SendUnicast(forged)
	if err := h.sim.Run(h.sim.Now() + 200); err != nil {
		t.Fatal(err)
	}
	if src.MFT().Len() != before {
		t.Errorf("forged fusion changed source MFT: %d -> %d entries", before, src.MFT().Len())
	}
}

// TestFusionOffPathRejected: a fusion naming a real member is rejected
// when the claimed branching node is not on the source's forward path
// to that member.
func TestFusionOffPathRejected(t *testing.T) {
	g := topology.Line(4, true)
	h := newHarness(t, g)
	src := h.source(hostOf(g, 0))
	r := h.receiver(hostOf(g, 1), src.Channel()) // member behind R1
	h.sim.At(10, r.Join)
	h.converge(t)

	if src.MFT().Get(r.Addr()) == nil {
		t.Fatal("member not at source")
	}
	// R3 is beyond the member: not on the path S->r. Its claim must be
	// rejected.
	forged := &packet.Fusion{
		Header: packet.Header{
			Proto:   packet.ProtoHBH,
			Type:    packet.TypeFusion,
			Channel: src.Channel(),
			Src:     g.Node(3).Addr,
			Dst:     src.Channel().S,
		},
		Bp: g.Node(3).Addr,
		Rs: []addr.Addr{r.Addr()},
	}
	h.net.Node(3).SendUnicast(forged)
	if err := h.sim.Run(h.sim.Now() + 200); err != nil {
		t.Fatal(err)
	}
	if e := src.MFT().Get(r.Addr()); e == nil || e.Marked {
		t.Error("off-path fusion marked the member at the source")
	}
	if src.MFT().Get(g.Node(3).Addr) != nil {
		t.Error("off-path branching candidate installed")
	}
}

// TestRelayDeathUnmarks: when a relay's entry dies, members it served
// are unmarked so data flows directly again (the ServedBy repair).
func TestRelayDeathUnmarks(t *testing.T) {
	sim := eventsim.New()
	mft := softstate.NewMFT()
	eA := mft.Add(1, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))
	eA.Marked = true
	eA.ServedBy = 9
	eB := mft.Add(2, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))
	eB.Marked = true
	eB.ServedBy = 8
	unmarkServedBy(mft, 9)
	if eA.Marked {
		t.Error("entry served by dead relay still marked")
	}
	if !eB.Marked {
		t.Error("entry served by another relay unmarked")
	}
	unmarkServedBy(nil, 9) // nil-safe
}

// TestFusionRelistUnmarksDropped: a fusion that no longer lists a
// receiver previously served by the same relay lifts that mark.
func TestFusionRelistUnmarksDropped(t *testing.T) {
	sim := eventsim.New()
	mft := softstate.NewMFT()
	eA := mft.Add(1, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))
	eA.Marked, eA.ServedBy = true, 9
	eB := mft.Add(2, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))

	// Relay 9 now lists only entry 2.
	applyFusion(mft, 9, []addr.Addr{2}, []*Entry{eB}, sim.Now(),
		func(node addr.Addr) *Entry {
			e := mft.Add(node, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))
			e.Timer.ForceStale()
			return e
		}, nil, nil)

	if eA.Marked {
		t.Error("dropped receiver still marked")
	}
	if !eB.Marked || eB.ServedBy != 9 {
		t.Error("newly served receiver not marked correctly")
	}
	relay := mft.Get(9)
	if relay == nil || !relay.Stale() {
		t.Error("relay not installed stale")
	}
}

// TestFusionRetractsWithoutMatches: a fusion whose listed targets are
// all already served (nothing new to hand over) must still lift marks
// for members the relay dropped from its list. Before this repair ran
// unconditionally, such fusions were discarded before the retraction
// loop, and a member whose delivery path churned away from the relay
// starved behind its stale mark forever (scenario-fuzzer catch).
func TestFusionRetractsWithoutMatches(t *testing.T) {
	sim := eventsim.New()
	mft := softstate.NewMFT()
	eA := mft.Add(1, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))
	eA.Marked, eA.ServedBy = true, 9
	eB := mft.Add(2, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))
	eB.Marked, eB.ServedBy = true, 9
	mft.Add(9, clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil))

	// Relay 9 re-announces only entry 2 (already served): matched would
	// be empty at the onFusion call sites, so only retraction runs.
	var lifted []addr.Addr
	n := retractFusion(mft, 9, []addr.Addr{2}, func(node addr.Addr) { lifted = append(lifted, node) })

	if n != 1 || len(lifted) != 1 || lifted[0] != 1 {
		t.Fatalf("retraction lifted %d marks (%v), want entry 1 only", n, lifted)
	}
	if eA.Marked || eA.ServedBy != addr.Unspecified {
		t.Error("dropped member still marked after retraction")
	}
	if !eB.Marked || eB.ServedBy != 9 {
		t.Error("still-listed member lost its mark")
	}
}
