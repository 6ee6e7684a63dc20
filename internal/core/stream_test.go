package core

import (
	"math/rand"
	"testing"

	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/softstate"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestContinuousStreamDuringChurn drives a packet stream through a
// group while members join and leave mid-stream: members receive
// essentially every packet sent while they are subscribed, including
// across another member's departure (the paper's stability argument,
// observed on the data plane rather than on table state).
func TestContinuousStreamDuringChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := topology.Random(topology.RandomConfig{Routers: 12, AvgDegree: 3.5, Hosts: true}, rng)
	g.RandomizeCosts(rng, 1, 10)
	h := newQuietHarness(g)

	src := AttachSource(h.net.Node(g.Hosts()[0]), srcGroup, h.cfg)
	stayers := []*Receiver{
		h.receiver(g.Hosts()[3], src.Channel()),
		h.receiver(g.Hosts()[6], src.Channel()),
		h.receiver(g.Hosts()[9], src.Channel()),
	}
	leaver := h.receiver(g.Hosts()[11], src.Channel())

	for i, r := range stayers {
		h.sim.At(eventsim.Time(10+20*i), r.Join)
	}
	h.sim.At(30, leaver.Join)

	// Let the tree converge fully, then stream one packet every 50
	// units for 60 intervals; the leaver departs mid-stream.
	streamStart := eventsim.Time(4000)
	const packets = 60
	var firstSeq uint32
	sent := 0
	for i := 0; i < packets; i++ {
		i := i
		h.sim.At(streamStart+eventsim.Time(50*i), func() {
			seq := src.SendData(nil)
			if i == 0 {
				firstSeq = seq
			}
			sent++
		})
	}
	leaveAt := streamStart + 50*packets/2
	h.sim.At(leaveAt, leaver.Leave)

	if err := h.sim.Run(streamStart + 50*packets + 3000); err != nil {
		t.Fatal(err)
	}
	if sent != packets {
		t.Fatalf("sent %d packets, want %d", sent, packets)
	}

	for i, r := range stayers {
		got := 0
		dups := 0
		for s := firstSeq; s < firstSeq+packets; s++ {
			c := r.DeliveryCount(s)
			if c >= 1 {
				got++
			}
			if c > 1 {
				dups += c - 1
			}
		}
		// Stayers must see every packet: their branches are not
		// touched by the departure (HBH's claim), and soft-state
		// transitions must not black-hole a converged member.
		if got != packets {
			t.Errorf("stayer %d received %d/%d packets", i, got, packets)
		}
		if dups > 0 {
			t.Errorf("stayer %d got %d duplicate packets", i, dups)
		}
	}

	// The leaver gets everything before departure and (within a
	// T1+T2 teardown window) nothing well after it.
	preLeave := int(leaveAt-streamStart) / 50
	gotPre := 0
	for s := firstSeq; s < firstSeq+uint32(preLeave); s++ {
		if leaver.DeliveryCount(s) >= 1 {
			gotPre++
		}
	}
	if gotPre != preLeave {
		t.Errorf("leaver received %d/%d pre-departure packets", gotPre, preLeave)
	}
	// Packets sent after the soft state fully expired must not arrive.
	cutoff := leaveAt + h.cfg.T1 + h.cfg.T2 + 100
	lateStart := uint32((int(cutoff-streamStart)/50 + 1))
	late := 0
	for s := firstSeq + lateStart; s < firstSeq+packets; s++ {
		late += leaver.DeliveryCount(s)
	}
	if late > 0 {
		t.Errorf("leaver still received %d packets after teardown window", late)
	}
}

// TestAlternateTimerConfigs: the protocol is not silently dependent on
// the default timer ratios — faster and slower soft-state clocks both
// converge to clean trees.
func TestAlternateTimerConfigs(t *testing.T) {
	timings := []softstate.Config{
		{JoinInterval: 50, TreeInterval: 50, T1: 175, T2: 175},
		{JoinInterval: 200, TreeInterval: 200, T1: 700, T2: 700},
		{JoinInterval: 100, TreeInterval: 50, T1: 400, T2: 200},
	}
	for ci, timing := range timings {
		cfg := Config{Config: timing, EnableFusion: true}
		sc := topology.Fig2Scenario()
		g := sc.Graph
		h := newQuietHarness(g)
		h.cfg = cfg
		// newQuietHarness attached routers with the default config;
		// rebuild with the alternate one.
		h = &harness{
			sim:     eventsim.New(),
			g:       g,
			cfg:     cfg,
			routers: map[topology.NodeID]*Router{},
		}
		h.routing = unicast.Compute(g)
		h.net = netsim.New(h.sim, g, h.routing)
		for _, r := range g.Routers() {
			h.routers[r] = AttachRouter(h.net.Node(r), cfg)
		}
		src := AttachSource(h.net.Node(sc.Source), srcGroup, cfg)
		r1 := AttachReceiver(h.net.Node(sc.R1), src.Channel(), cfg)
		r2 := AttachReceiver(h.net.Node(sc.R2), src.Channel(), cfg)
		h.sim.At(10, r1.Join)
		h.sim.At(130, r2.Join)
		if err := h.sim.Run(60 * cfg.TreeInterval); err != nil {
			t.Fatal(err)
		}
		res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) },
			[]mtree.Member{r1, r2})
		if !res.Complete() {
			t.Errorf("config %d: incomplete delivery: %v", ci, res)
		}
		want1 := eventsim.Time(h.routing.Dist(sc.Source, g.MustByAddr(r1.Addr())))
		want2 := eventsim.Time(h.routing.Dist(sc.Source, g.MustByAddr(r2.Addr())))
		if res.Delays[r1.Addr()] != want1 || res.Delays[r2.Addr()] != want2 {
			t.Errorf("config %d: delays %v/%v, want %v/%v", ci,
				res.Delays[r1.Addr()], res.Delays[r2.Addr()], want1, want2)
		}
	}
}
