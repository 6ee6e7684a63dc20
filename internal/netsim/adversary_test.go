package netsim

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

func advControlPacket(dst addr.Addr) *packet.Tree {
	return &packet.Tree{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeTree,
			Channel: addr.Channel{S: addr.MustParse("10.9.0.1"), G: addr.GroupAddr(0)},
			Dst:     dst,
		},
		R: dst,
	}
}

// TestAdversaryControlOnly asserts the adversary's loss never touches
// data packets — the invariant that keeps delivery measurements
// meaningful under an active adversary.
func TestAdversaryControlOnly(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetAdversary(Adversary{Loss: 0.999999, RNG: rand.New(rand.NewSource(1))})

	delivered := 0
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) { delivered++ })
	net.Node(0).SendUnicast(advControlPacket(g.Node(1).Addr))
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (data only)", delivered)
	}
	if got := net.Stats().AdvLossDrops; got != 1 {
		t.Errorf("AdvLossDrops = %d, want 1", got)
	}
}

// TestAdversaryScheduleReproducible asserts two same-seeded adversary
// runs over the same traffic produce bit-identical drop/dup schedules
// and delivery timings.
func TestAdversaryScheduleReproducible(t *testing.T) {
	run := func() (Stats, []eventsim.Time) {
		g := topology.Line(3, false)
		net, sim := build(g)
		net.SetAdversary(Adversary{
			Loss: 0.2, BurstStart: 0.05, BurstLen: 3,
			MaxJitter: 7, Duplicate: 0.15,
			RNG: rand.New(rand.NewSource(99)),
		})
		var arrivals []eventsim.Time
		net.Node(2).SetDeliver(func(ProtoNode, packet.Message) {
			arrivals = append(arrivals, sim.Now())
		})
		for i := 0; i < 500; i++ {
			net.Node(0).SendUnicast(advControlPacket(g.Node(2).Addr))
		}
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
		return net.Stats(), arrivals
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Fatalf("same-seed adversary stats diverged:\n  %+v\n  %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival counts diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d diverged: %v vs %v", i, a1[i], a2[i])
		}
	}
	if s1.AdvLossDrops == 0 || s1.AdvDups == 0 {
		t.Errorf("schedule exercised nothing: %+v", s1)
	}
}

// TestAdversaryZeroEquivalentToAbsent asserts installing an all-zero
// adversary is bit-identical to never installing one (the
// flag-invariance guarantee behind the committed A-figure tables), and
// that a zeroed adversary uninstalls an active one.
func TestAdversaryZeroEquivalentToAbsent(t *testing.T) {
	run := func(setup func(*Network)) (Stats, int) {
		g := topology.Line(3, false)
		net, sim := build(g)
		setup(net)
		delivered := 0
		net.Node(2).SetDeliver(func(ProtoNode, packet.Message) { delivered++ })
		for i := 0; i < 200; i++ {
			net.Node(0).SendUnicast(advControlPacket(g.Node(2).Addr))
			net.Node(0).SendUnicast(dataTo(g.Node(2).Addr, uint32(i)))
		}
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
		return net.Stats(), delivered
	}
	sAbsent, dAbsent := run(func(*Network) {})
	sZero, dZero := run(func(n *Network) { n.SetAdversary(Adversary{}) })
	sCleared, dCleared := run(func(n *Network) {
		n.SetAdversary(Adversary{Loss: 0.5, RNG: rand.New(rand.NewSource(1))})
		n.SetAdversary(Adversary{})
	})
	if sAbsent != sZero || dAbsent != dZero {
		t.Errorf("zero adversary != absent adversary:\n  %+v (%d)\n  %+v (%d)",
			sAbsent, dAbsent, sZero, dZero)
	}
	if sAbsent != sCleared || dAbsent != dCleared {
		t.Errorf("cleared adversary != absent adversary:\n  %+v (%d)\n  %+v (%d)",
			sAbsent, dAbsent, sCleared, dCleared)
	}
	if sAbsent.AdvLossDrops != 0 || sAbsent.AdvDups != 0 {
		t.Errorf("baseline run moved adversary counters: %+v", sAbsent)
	}
}

// TestAdversaryLossRate checks the uniform loss knob statistically.
func TestAdversaryLossRate(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetAdversary(Adversary{Loss: 0.25, RNG: rand.New(rand.NewSource(7))})
	const n = 4000
	got := 0
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) { got++ })
	for i := 0; i < n; i++ {
		net.Node(0).SendUnicast(advControlPacket(g.Node(1).Addr))
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	rate := 1 - float64(got)/n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("observed loss rate %.3f, want ~0.25", rate)
	}
	if int(net.Stats().AdvLossDrops) != n-got {
		t.Errorf("AdvLossDrops = %d, want %d", net.Stats().AdvLossDrops, n-got)
	}
}

// TestAdversaryBurstLoss asserts a burst swallows exactly BurstLen
// consecutive control traversals.
func TestAdversaryBurstLoss(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	// BurstStart 0.999...: the first traversal starts a burst, which
	// then consumes the next BurstLen-1 without further draws.
	net.SetAdversary(Adversary{
		BurstStart: 0.9999999, BurstLen: 5,
		RNG: rand.New(rand.NewSource(3)),
	})
	got := 0
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) { got++ })
	for i := 0; i < 5; i++ {
		net.Node(0).SendUnicast(advControlPacket(g.Node(1).Addr))
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("burst of 5 let %d of 5 packets through", got)
	}
	if net.Stats().AdvLossDrops != 5 {
		t.Errorf("AdvLossDrops = %d, want 5", net.Stats().AdvLossDrops)
	}
}

// TestAdversaryDuplicateDelivers asserts duplication injects real,
// independently delivered copies, counted in AdvDups, and that the
// copies are deep: a handler rewriting one twin in flight must not
// change the other, and the sender's value is its own again once the
// send returns.
func TestAdversaryDuplicateDelivers(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetAdversary(Adversary{Duplicate: 0.9999999, RNG: rand.New(rand.NewSource(5))})
	rewritten := addr.MustParse("10.255.0.1")
	var seen []addr.Addr
	net.Node(1).AddHandler(HandlerFunc(func(_ ProtoNode, m packet.Message, _ obs.Causal) Verdict {
		tr := m.(*packet.Tree)
		seen = append(seen, tr.R)
		tr.R = rewritten // in place, as a regenerating hop rewrites a tree
		return Continue
	}))
	pkt := advControlPacket(g.Node(1).Addr)
	want := pkt.R
	net.Node(0).SendUnicast(pkt)
	pkt.R = rewritten // the transport copied the packet at send
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("handled %d copies, want 2", len(seen))
	}
	for _, r := range seen {
		if r != want {
			t.Errorf("copies arrived with R %v, want both %v: the twins, or the sender's value and a twin, share structure", seen, want)
			break
		}
	}
	if net.Stats().AdvDups != 1 {
		t.Errorf("AdvDups = %d, want 1", net.Stats().AdvDups)
	}
}

// TestAdversaryJitterReorders asserts the jitter knob actually
// reorders control packets (the soft-state protocols must tolerate
// out-of-order control) while losing none of them.
func TestAdversaryJitterReorders(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetAdversary(Adversary{MaxJitter: 50, RNG: rand.New(rand.NewSource(11))})
	var order []addr.Addr
	net.Node(1).SetDeliver(func(_ ProtoNode, m packet.Message) {
		order = append(order, m.(*packet.Tree).R)
	})
	const n = 50
	for i := 0; i < n; i++ {
		p := advControlPacket(g.Node(1).Addr)
		p.R = addr.RouterAddr(i) // tag with send order
		net.Node(0).SendUnicast(p)
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d of %d (jitter must not lose packets)", len(order), n)
	}
	inverted := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Error("50 sends under jitter 50 arrived perfectly in order")
	}
}

// TestAdversaryValidation pins the knob validation panics.
func TestAdversaryValidation(t *testing.T) {
	g := topology.Line(2, false)
	net, _ := build(g)
	rng := rand.New(rand.NewSource(1))
	for name, a := range map[string]Adversary{
		"loss 1.0":           {Loss: 1.0, RNG: rng},
		"loss 2":             {Loss: 2, RNG: rng},
		"negative loss":      {Loss: -0.1, RNG: rng},
		"dup 1.0":            {Duplicate: 1.0, RNG: rng},
		"negative jitter":    {MaxJitter: -1, RNG: rng},
		"burst without len":  {BurstStart: 0.5, RNG: rng},
		"active without rng": {Loss: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetAdversary did not panic", name)
				}
			}()
			net.SetAdversary(a)
		}()
	}
}
