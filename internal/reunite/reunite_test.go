package reunite

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/invariant"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

type harness struct {
	sim      *eventsim.Sim
	g        *topology.Graph
	routing  *unicast.Routing
	net      *netsim.Network
	cfg      Config
	routers  map[topology.NodeID]*Router
	checkers []*invariant.Checker
}

func newHarness(t *testing.T, g *topology.Graph) *harness {
	t.Helper()
	h := &harness{
		sim: eventsim.New(), g: g, cfg: DefaultConfig(),
		routers: make(map[topology.NodeID]*Router),
	}
	h.routing = unicast.Compute(g)
	h.net = netsim.New(h.sim, g, h.routing)
	for _, r := range g.Routers() {
		h.routers[r] = AttachRouter(h.net.Node(r), h.cfg)
	}
	t.Cleanup(func() {
		for _, c := range h.checkers {
			if !c.Clean() {
				t.Errorf("%s", c.Report())
			}
		}
	})
	return h
}

// watch puts src's channel under the invariant checker (the REUNITE
// profile: structural, loop-freedom and leak invariants — tree-shape
// guarantees are what the protocol lacks by design), driven by the
// network's observer, attached here unless the test brought its own.
// Violations fail the test at cleanup.
func (h *harness) watch(src *Source) *invariant.Checker {
	routers := make([]*Router, 0, len(h.routers))
	for _, id := range h.g.Routers() {
		routers = append(routers, h.routers[id])
	}
	o := h.net.Observer()
	if o == nil {
		o = obs.New(nil)
		h.net.SetObserver(o)
	}
	chk := invariant.New(h.net, src.Channel(), invariant.ProfileREUNITE(), NewAudit(src, routers))
	chk.SetObserver(o)
	h.checkers = append(h.checkers, chk)
	invariant.InstallContinuous(h.sim, h.checkers...)
	return chk
}

// routerAt returns the Router attached to the given node.
func (h *harness) routerAt(id topology.NodeID) *Router { return h.routers[id] }

func (h *harness) converge(t *testing.T) {
	t.Helper()
	if err := h.sim.Run(h.sim.Now() + 40*h.cfg.TreeInterval); err != nil {
		t.Fatalf("converge: %v", err)
	}
}

func (h *harness) probe(t *testing.T, src *Source, members []mtree.Member) *mtree.Result {
	t.Helper()
	return mtree.Probe(h.net, func() uint32 { return src.SendData([]byte("probe")) }, members)
}

func hostOf(g *topology.Graph, r int) topology.NodeID {
	for _, hID := range g.Hosts() {
		if g.AttachedRouter(hID) == topology.NodeID(r) {
			return hID
		}
	}
	panic("no host")
}

// asymGraph is the Figure 2 pathology topology: r2's join path to S
// crosses C, which lies on r1's tree branch, while the forward
// shortest path S->r2 goes A->D. See topology.Fig2Scenario.
func asymGraph() *topology.Graph {
	return topology.Fig2Scenario().Graph
}

// dupGraph is the Figure 3 pathology topology: the trees to r1 and r2
// share the trunk A-B, but r2's join path (D->E->A) bypasses B, so
// REUNITE never detects B as a branching node and puts two copies of
// every data packet on A->B. See topology.Fig3Scenario.
func dupGraph() *topology.Graph {
	return topology.Fig3Scenario().Graph
}

// TestReversePathPinning reproduces Figure 2(a): r2's join is
// intercepted at C on r1's branch, so r2 receives data over the longer
// C-D path instead of the shortest A-D path.
func TestReversePathPinning(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	r1Host := g.MustByAddr(addr.ReceiverAddr(2))
	r2Host := g.MustByAddr(addr.ReceiverAddr(3))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	r1 := AttachReceiver(h.net.Node(r1Host), src.Channel(), h.cfg)
	r2 := AttachReceiver(h.net.Node(r2Host), src.Channel(), h.cfg)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	// r1 is on its shortest path (it joined at S).
	if got, want := res.Delays[r1.Addr()], eventsim.Time(h.routing.Dist(sHost, r1Host)); got != want {
		t.Errorf("r1 delay = %v, want %v", got, want)
	}
	// r2 is pinned to the reverse-path detour through C: delay 5, not
	// the shortest-path 3. This asymmetry penalty is exactly what HBH
	// avoids (see the core package's TestAsymmetricShortestPath).
	if got := res.Delays[r2.Addr()]; got != 5 {
		t.Errorf("r2 delay = %v, want 5 (the detour via C)\n%s", got, res.FormatTree(g))
	}
	if sp := eventsim.Time(h.routing.Dist(sHost, r2Host)); sp != 3 {
		t.Fatalf("topology broken: shortest S->r2 = %v, want 3", sp)
	}
}

// TestDepartureRouteChange walks Figure 2(b)-(d): after r1 leaves,
// marked tree messages dissolve the stale state, r2 re-joins at S, and
// r2's route CHANGES to the shortest path — the instability the paper
// criticises (HBH keeps remaining members' routes unchanged).
func TestDepartureRouteChange(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	r2Host := g.MustByAddr(addr.ReceiverAddr(3))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	r1 := AttachReceiver(h.net.Node(g.MustByAddr(addr.ReceiverAddr(2))), src.Channel(), h.cfg)
	r2 := AttachReceiver(h.net.Node(r2Host), src.Channel(), h.cfg)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	before := h.probe(t, src, []mtree.Member{r1, r2})
	if got := before.Delays[r2.Addr()]; got != 5 {
		t.Fatalf("pre-departure r2 delay = %v, want 5", got)
	}

	r1.Leave()
	if err := h.sim.Run(h.sim.Now() + 4*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}

	after := h.probe(t, src, []mtree.Member{r2})
	if len(after.Missing) != 0 {
		t.Fatalf("r2 lost after r1's departure: %v", after)
	}
	want := eventsim.Time(h.routing.Dist(sHost, r2Host))
	if got := after.Delays[r2.Addr()]; got != want {
		t.Errorf("post-departure r2 delay = %v, want shortest-path %v (route should have changed)\n%s",
			got, want, after.FormatTree(g))
	}
}

// TestLinkDuplication reproduces Figure 3: the A->B trunk carries two
// copies of every data packet because REUNITE cannot place a branching
// node at B.
func TestLinkDuplication(t *testing.T) {
	g := dupGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	r1 := AttachReceiver(h.net.Node(g.MustByAddr(addr.ReceiverAddr(2))), src.Channel(), h.cfg)
	r2 := AttachReceiver(h.net.Node(g.MustByAddr(addr.ReceiverAddr(3))), src.Channel(), h.cfg)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	ab := mtree.Link{From: 0, To: 1} // A -> B
	if got := res.LinkCopies[ab]; got != 2 {
		t.Errorf("copies on A->B = %d, want 2 (the Fig. 3 duplication)\n%s", got, res.FormatTree(g))
	}
	if res.Cost != 7 {
		t.Errorf("tree cost = %d, want 7\n%s", res.Cost, res.FormatTree(g))
	}
}

// TestBasicLine checks plain delivery on a symmetric chain.
func TestBasicLine(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)
	srcHost := hostOf(g, 0)
	src := AttachSource(h.net.Node(srcHost), addr.GroupAddr(0), h.cfg)
	r2 := AttachReceiver(h.net.Node(hostOf(g, 2)), src.Channel(), h.cfg)
	r4 := AttachReceiver(h.net.Node(hostOf(g, 4)), src.Channel(), h.cfg)
	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r2, r4})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	if got, want := res.Delays[r2.Addr()], eventsim.Time(h.routing.Dist(srcHost, hostOf(g, 2))); got != want {
		t.Errorf("r2 delay = %v, want %v", got, want)
	}
	if got, want := res.Delays[r4.Addr()], eventsim.Time(h.routing.Dist(srcHost, hostOf(g, 4))); got != want {
		t.Errorf("r4 delay = %v, want %v", got, want)
	}
	// Symmetric chain: R2 is the branching node, one copy per link.
	if res.Cost != 7 {
		t.Errorf("cost = %d, want 7\n%s", res.Cost, res.FormatTree(g))
	}
	if res.MaxLinkCopies() != 1 {
		t.Errorf("unexpected duplication on symmetric chain:\n%s", res.FormatTree(g))
	}
}

func newTimer(sim *eventsim.Sim) *clock.SoftTimer {
	return clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil)
}

func TestMFTDstIsFirstEntry(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	if mft.Dst() != nil {
		t.Error("empty table has a dst")
	}
	mft.Add(10, newTimer(sim))
	mft.Add(20, newTimer(sim))
	mft.Add(30, newTimer(sim))
	if mft.Dst().Node != 10 {
		t.Errorf("dst = %v, want 10 (first joiner)", mft.Dst().Node)
	}
	// Removing dst promotes the next-oldest entry.
	mft.Remove(10)
	if mft.Dst().Node != 20 {
		t.Errorf("dst after removal = %v, want 20", mft.Dst().Node)
	}
	if mft.Len() != 2 {
		t.Errorf("Len = %d", mft.Len())
	}
}

// TestMFTDestroy: REUNITE's Destroy takes the whole-table Liveness
// timer down with the entries.
func TestMFTDestroy(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	expired := false
	mft.Add(1, clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { expired = true }))
	mft.Liveness = clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { expired = true })
	mft.Destroy()
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if expired {
		t.Error("timers fired after Destroy")
	}
	if mft.Len() != 0 {
		t.Error("table not emptied")
	}
}

func TestMFTString(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	if s := mft.String(); s != "[]" {
		t.Errorf("empty String = %q", s)
	}
	mft.Add(addr.MustParse("10.1.0.1"), newTimer(sim))
	mft.Add(addr.MustParse("10.1.0.2"), newTimer(sim))
	mft.TableStale = true
	if s := mft.String(); s != "![dst=10.1.0.1 10.1.0.2]" {
		t.Errorf("String = %q", s)
	}
}

// TestDefaultsMatchHBH: fairness requires REUNITE and HBH to run under
// identical soft-state timing in the comparisons.
func TestDefaultsMatchHBH(t *testing.T) {
	c := DefaultConfig()
	if c.JoinInterval != 100 || c.TreeInterval != 100 || c.T1 != 350 || c.T2 != 350 {
		t.Errorf("defaults drifted: %+v", c)
	}
}

// TestMFTIndex: the wrapper promotes the kit table's mechanics
// unchanged — lookup, idempotent removal, loud duplicate insertion.
func TestMFTIndex(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	mft.Add(1, newTimer(sim))
	if mft.Get(1) == nil || mft.Get(2) != nil {
		t.Error("Get broken")
	}
	if mft.Remove(2) {
		t.Error("Remove absent returned true")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	mft.Add(1, newTimer(sim))
}
