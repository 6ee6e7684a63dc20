package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/testseed"
	"hbh/internal/topology"
)

// TestQuickChurnRecovers is a robustness property test: receivers
// join and leave at random times over a random asymmetric topology;
// after the churn stops and the soft state settles, the tree must
// serve exactly the members that remain, at shortest-path delays,
// with no duplicated link copies.
func TestQuickChurnRecovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 8 + rng.Intn(10), AvgDegree: 3.2, Hosts: true,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		h := newQuietHarness(g)

		srcHost := g.Hosts()[0]
		src := AttachSource(h.net.Node(srcHost), srcGroup, h.cfg)

		// Up to 6 receivers with random join times; a random subset
		// leaves mid-run.
		n := 2 + rng.Intn(5)
		pool := append([]topology.NodeID(nil), g.Hosts()[1:]...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		type mem struct {
			r      *Receiver
			leaves bool
		}
		var members []mem
		for i := 0; i < n && i < len(pool); i++ {
			rcv := AttachReceiver(h.net.Node(pool[i]), src.Channel(), h.cfg)
			joinAt := eventsim.Time(rng.Float64() * 500)
			h.sim.At(joinAt, rcv.Join)
			m := mem{r: rcv, leaves: rng.Intn(2) == 0 && i > 0}
			if m.leaves {
				leaveAt := joinAt + 200 + eventsim.Time(rng.Float64()*800)
				h.sim.At(leaveAt, rcv.Leave)
			}
			members = append(members, m)
		}

		// Churn window + settle (leave teardown takes T1+T2 cycles).
		if err := h.sim.Run(7000); err != nil {
			return false
		}

		var stayed []mtree.Member
		for _, m := range members {
			if !m.leaves {
				stayed = append(stayed, m.r)
			}
		}
		res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) }, stayed)
		if len(stayed) > 0 && !res.Complete() {
			return false
		}
		if res.MaxLinkCopies() > 1 {
			return false
		}
		for _, m := range stayed {
			want := eventsim.Time(h.routing.Dist(srcHost, g.MustByAddr(m.Addr())))
			if res.Delays[m.Addr()] != want {
				return false
			}
		}
		// Members that left must not receive the probe.
		for _, m := range members {
			if m.leaves && m.r.DeliveryCount(res.Seq) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

// TestRejoinAfterLeave: a receiver that leaves and joins again is
// served again.
func TestRejoinAfterLeave(t *testing.T) {
	g := topology.Line(4, true)
	h := newHarness(t, g)
	src := h.source(hostOf(g, 0))
	r := h.receiver(hostOf(g, 3), src.Channel())

	h.sim.At(10, r.Join)
	h.converge(t)
	first := h.probe(t, src, []mtree.Member{r})
	if !first.Complete() {
		t.Fatalf("initial join broken: %v", first)
	}

	r.Leave()
	if err := h.sim.Run(h.sim.Now() + 3*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}
	gone := h.probe(t, src, nil)
	if r.DeliveryCount(gone.Seq) != 0 {
		t.Error("left receiver still served")
	}

	r.Join()
	h.converge(t)
	back := h.probe(t, src, []mtree.Member{r})
	if !back.Complete() {
		t.Fatalf("re-join broken: %v", back)
	}
}

// TestDoubleJoinIdempotent: calling Join twice is harmless, and Leave
// before Join is a no-op.
func TestJoinLeaveIdempotent(t *testing.T) {
	g := topology.Line(3, true)
	h := newHarness(t, g)
	src := h.source(hostOf(g, 0))
	r := h.receiver(hostOf(g, 2), src.Channel())
	r.Leave() // no-op
	h.sim.At(5, r.Join)
	h.sim.At(6, r.Join) // idempotent
	h.converge(t)
	res := h.probe(t, src, []mtree.Member{r})
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	if !r.Joined() {
		t.Error("Joined false after Join")
	}
	r.Leave()
	if r.Joined() {
		t.Error("Joined true after Leave")
	}
}
