package core

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/mtree"
	"hbh/internal/packet"
	"hbh/internal/softstate"
	"hbh/internal/topology"
)

// TestCheckerConvergedLine runs the full invariant profile over the
// base-case tree: loop-free, spanning, unique-service, shortest-path,
// exactly-once delivery with one copy per link.
func TestCheckerConvergedLine(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)

	src := h.source(hostOf(g, 0))
	r2 := h.receiver(hostOf(g, 2), src.Channel())
	r4 := h.receiver(hostOf(g, 4), src.Channel())
	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r2, r4})
	chk := h.checker(src.Channel())
	chk.SetMembers([]addr.Addr{r2.Addr(), r4.Addr()})
	chk.CheckConverged(res.Seq)
	if !chk.Clean() {
		t.Fatalf("checker found violations on a converged line tree:\n%s", chk.Report())
	}
}

// TestCheckerConvergedAsymmetric runs the full profile over the
// Figure 2/5 asymmetric pathology — the topology where the
// shortest-path equality actually bites.
func TestCheckerConvergedAsymmetric(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)

	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	src := h.source(sHost)
	r1 := h.receiver(g.MustByAddr(addr.ReceiverAddr(2)), src.Channel())
	r2 := h.receiver(g.MustByAddr(addr.ReceiverAddr(3)), src.Channel())
	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	chk := h.checker(src.Channel())
	chk.SetMembers([]addr.Addr{r1.Addr(), r2.Addr()})
	chk.CheckConverged(res.Seq)
	if !chk.Clean() {
		t.Fatalf("checker found violations on the asymmetric tree:\n%s", chk.Report())
	}
}

// TestQuiescentAfterAllLeave is the soft-state leak audit: once every
// receiver leaves and the timers run out, no router may hold channel
// state — tables, rate-limit stamps, or the dedup window. The dedup
// window is the regression half: maybeDrop used to leave seen[ch]
// behind forever.
func TestQuiescentAfterAllLeave(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)

	src := h.source(hostOf(g, 0))
	r2 := h.receiver(hostOf(g, 2), src.Channel())
	r4 := h.receiver(hostOf(g, 4), src.Channel())
	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	// Send data so the branching router populates its dedup window.
	res := h.probe(t, src, []mtree.Member{r2, r4})
	if !res.Complete() {
		t.Fatalf("incomplete delivery before teardown: %v", res)
	}

	r2.Leave()
	r4.Leave()
	if err := h.sim.Run(h.sim.Now() + 6*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}

	chk := h.checker(src.Channel())
	chk.CheckQuiescent()
	if !chk.Clean() {
		t.Fatalf("soft state leaked after all receivers left:\n%s", chk.Report())
	}
}

// TestRejoinReplay is the dedup-window regression test: a branching
// router that served a channel, saw it torn down, and later rejoined
// the rebuilt tree must forward re-sent sequence numbers. Before the
// maybeDrop fix the stale window swallowed them silently.
func TestRejoinReplay(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)

	src := h.source(hostOf(g, 0))
	ch := src.Channel()
	r2 := h.receiver(hostOf(g, 2), ch)
	r4 := h.receiver(hostOf(g, 4), ch)
	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	// Seq 0 passes through the branching router R2, entering its window.
	first := h.probe(t, src, []mtree.Member{r2, r4})
	if !first.Complete() {
		t.Fatalf("incomplete delivery before teardown: %v", first)
	}
	branching := h.routers[2]
	if branching.MFTFor(ch) == nil {
		t.Fatalf("expected R2 to be the branching router")
	}

	// Full teardown, then the same receivers rebuild the same tree.
	r2.Leave()
	r4.Leave()
	if err := h.sim.Run(h.sim.Now() + 6*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}
	r2.Join()
	r4.Join()
	h.converge(t)
	if branching.MFTFor(ch) == nil {
		t.Fatalf("expected R2 to branch again after rejoin")
	}

	// Replay sequence number 0 — a source restart resets its counter,
	// so old sequence numbers legitimately reappear on the wire.
	r2.ResetDeliveries()
	r4.ResetDeliveries()
	replay := &packet.Data{
		Header: packet.Header{
			Proto:   packet.ProtoNone,
			Type:    packet.TypeData,
			Channel: ch,
			Src:     ch.S,
			Dst:     branching.Addr(),
		},
		Seq:     0,
		Payload: []byte("replay"),
	}
	h.net.NodeByAddr(ch.S).SendUnicast(replay)
	if err := h.sim.Run(h.sim.Now() + 50); err != nil {
		t.Fatal(err)
	}
	if got := r2.DeliveryCount(0); got != 1 {
		t.Errorf("r2 replay deliveries = %d, want 1 (stale dedup window swallowed the replay?)", got)
	}
	if got := r4.DeliveryCount(0); got != 1 {
		t.Errorf("r4 replay deliveries = %d, want 1 (stale dedup window swallowed the replay?)", got)
	}
}

// TestApplyFusionSkipsExpiredEntry pins the defensive revalidation in
// applyFusion: the matched slice is collected before applyFusion runs,
// so an entry that expires in between (the Entries slice is the live
// backing array) must be skipped, not resurrected by marking a dead
// row.
func TestApplyFusionSkipsExpiredEntry(t *testing.T) {
	g := topology.Line(2, true)
	h := newHarness(t, g)
	cfg := h.cfg

	table := softstate.NewMFT()
	a := addr.RouterAddr(10)
	b := addr.RouterAddr(11)
	bp := addr.RouterAddr(12)
	ea := table.Add(a, clock.NewSoftTimer(clock.Sim(h.sim), cfg.T1, cfg.T2, nil, nil))
	eb := table.Add(b, clock.NewSoftTimer(clock.Sim(h.sim), cfg.T1, cfg.T2, nil, nil))

	matched := []*Entry{ea, eb}
	table.Remove(a) // "expiry" between collection and application

	applyFusion(table, bp, []addr.Addr{a, b}, matched, h.sim.Now(),
		func(node addr.Addr) *Entry {
			e := table.Add(node, clock.NewSoftTimer(clock.Sim(h.sim), cfg.T1, cfg.T2, nil, nil))
			e.Timer.ForceStale()
			return e
		}, nil, nil)

	if ea.Marked || ea.ServedBy != addr.Unspecified {
		t.Errorf("expired entry was mutated: marked=%v servedBy=%v", ea.Marked, ea.ServedBy)
	}
	if !eb.Marked || eb.ServedBy != bp {
		t.Errorf("live entry not handed to relay: marked=%v servedBy=%v", eb.Marked, eb.ServedBy)
	}
	if table.Get(bp) == nil {
		t.Errorf("relay entry not installed")
	}
}
