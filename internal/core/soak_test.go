package core

import (
	"math/rand"
	"testing"

	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/topology"
)

// TestSoakBoundedState runs a session two orders of magnitude longer
// than the experiments (200k time units = 2000 refresh intervals) with
// periodic membership churn, and checks that the event queue and the
// protocol keep working without unbounded growth — the soft-state
// machinery must not leak timers or spin up ever more traffic.
func TestSoakBoundedState(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	g := topology.ISP()
	g.RandomizeCosts(rng, 1, 10)
	h := newQuietHarness(g)

	src := AttachSource(h.net.Node(topology.ISPSourceHost), srcGroup, h.cfg)
	var rcvs []*Receiver
	for _, host := range g.Hosts() {
		if host == topology.ISPSourceHost {
			continue
		}
		rcvs = append(rcvs, AttachReceiver(h.net.Node(host), src.Channel(), h.cfg))
	}

	// Churn: every 500 units one random receiver toggles membership.
	toggles := 0
	churn := clock.NewTicker(clock.Sim(h.sim), 500, func() {
		r := rcvs[rng.Intn(len(rcvs))]
		if r.Joined() {
			r.Leave()
		} else {
			r.Join()
		}
		toggles++
	})
	// A few initial members.
	for i := 0; i < 5; i++ {
		h.sim.At(eventsim.Time(10+10*i), rcvs[i].Join)
	}

	var maxPending int
	for epoch := 0; epoch < 20; epoch++ {
		if err := h.sim.Run(h.sim.Now() + 10000); err != nil {
			t.Fatal(err)
		}
		if p := h.sim.Pending(); p > maxPending {
			maxPending = p
		}
	}
	if toggles < 300 {
		t.Fatalf("churn ticker broke: %d toggles", toggles)
	}
	// Pending counts live events only (a cancelled or re-armed timer
	// leaves nothing behind in the queue), so the population is the live
	// state: 19 tickers (17 receivers, the source, the churn), one soft
	// timer per table entry — a tree over 17 members and 18 routers keeps
	// each member and each relay in a handful of tables — and the
	// control packets in flight when an epoch ends. That is tens of
	// events (71 at most on this seed); 150 leaves room for another seed
	// and none for a leak, which adds a timer per refresh interval.
	if maxPending > 150 {
		t.Errorf("event queue grew to %d pending events (leak?)", maxPending)
	}

	// The session must still work: quiesce the churn, converge, probe.
	churn.Stop()
	var alive []mtree.Member
	for _, r := range rcvs {
		if r.Joined() {
			r.ResetDeliveries()
			alive = append(alive, r)
		}
	}
	if err := h.sim.Run(h.sim.Now() + 5000); err != nil {
		t.Fatal(err)
	}
	if len(alive) == 0 {
		t.Skip("churn left no members (seed artefact)")
	}
	res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) }, alive)
	if !res.Complete() {
		t.Errorf("delivery broken after soak: %v", res)
	}
	if res.MaxLinkCopies() != 1 {
		t.Errorf("duplication after soak: %d copies", res.MaxLinkCopies())
	}
}
