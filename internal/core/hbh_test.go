package core

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/invariant"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// harness wires a graph into a running network with an HBH router on
// every router node. Harnesses built with newHarness run every channel
// under the invariant checker: structural invariants are validated
// continuously, and any violation fails the test at cleanup.
type harness struct {
	sim      *eventsim.Sim
	g        *topology.Graph
	routing  *unicast.Routing
	net      *netsim.Network
	routers  map[topology.NodeID]*Router
	cfg      Config
	t        *testing.T
	checkers []*invariant.Checker
}

// srcGroup is the group address used by all protocol tests.
var srcGroup = addr.GroupAddr(0)

func newQuietHarness(g *topology.Graph) *harness {
	h := &harness{
		sim:     eventsim.New(),
		g:       g,
		cfg:     DefaultConfig(),
		routers: make(map[topology.NodeID]*Router),
	}
	h.routing = unicast.Compute(g)
	h.net = netsim.New(h.sim, g, h.routing)
	for _, r := range g.Routers() {
		h.routers[r] = AttachRouter(h.net.Node(r), h.cfg)
	}
	return h
}

func newHarness(t *testing.T, g *topology.Graph) *harness {
	t.Helper()
	h := newQuietHarness(g)
	h.t = t
	t.Cleanup(func() {
		for _, c := range h.checkers {
			if !c.Clean() {
				t.Errorf("%s", c.Report())
			}
		}
	})
	return h
}

func (h *harness) source(host topology.NodeID) *Source {
	s := AttachSource(h.net.Node(host), srcGroup, h.cfg)
	if h.t != nil {
		h.watch(s)
	}
	return s
}

// watch puts s's channel under the invariant checker: every table
// change on the channel's event stream re-validates the structural
// invariants after the event that caused it. The checker reads the
// network's observer, attached here unless the test brought its own.
func (h *harness) watch(s *Source) *invariant.Checker {
	o := h.net.Observer()
	if o == nil {
		o = obs.New(nil)
		h.net.SetObserver(o)
	}
	chk := invariant.New(h.net, s.Channel(), invariant.ProfileHBH(), NewAudit(s, h.routerList()))
	chk.SetObserver(o)
	h.checkers = append(h.checkers, chk)
	invariant.InstallContinuous(h.sim, h.checkers...)
	return chk
}

// checker returns the invariant checker watching ch.
func (h *harness) checker(ch addr.Channel) *invariant.Checker {
	for _, c := range h.checkers {
		if c.Channel() == ch {
			return c
		}
	}
	return nil
}

// routerList returns the attached routers in topology order.
func (h *harness) routerList() []*Router {
	out := make([]*Router, 0, len(h.routers))
	for _, id := range h.g.Routers() {
		out = append(out, h.routers[id])
	}
	return out
}

func (h *harness) receiver(host topology.NodeID, ch addr.Channel) *Receiver {
	return AttachReceiver(h.net.Node(host), ch, h.cfg)
}

// converge runs the simulation long enough for the soft state to
// settle, including the relay-collapse cascade after the initial tree
// forms (each collapse step takes a full T1+T2 cycle).
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

// hostOf returns the host node attached to router r in graphs built by
// the topology constructors (hosts appended after routers).
func hostOf(g *topology.Graph, r int) topology.NodeID {
	for _, hID := range g.Hosts() {
		if g.AttachedRouter(hID) == topology.NodeID(r) {
			return hID
		}
	}
	panic("no host")
}

// TestLineTwoReceivers checks the base case: a chain R0..R4, source on
// R0's host, receivers on R2's and R4's hosts. The converged tree must
// deliver exactly one copy to each receiver at shortest-path delay,
// with exactly one copy per link.
func TestLineTwoReceivers(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)

	srcHost := hostOf(g, 0)
	src := h.source(srcHost)
	r2 := h.receiver(hostOf(g, 2), src.Channel())
	r4 := h.receiver(hostOf(g, 4), src.Channel())

	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r2, r4})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	// Chain with unit costs: host-R0, R0-R1, R1-R2, R2-host2 (delay 4),
	// and on to R3, R4, host4 (delay 7). Tree cost = 7 links.
	wantDelayR2 := eventsim.Time(h.routing.Dist(srcHost, hostOf(g, 2)))
	wantDelayR4 := eventsim.Time(h.routing.Dist(srcHost, hostOf(g, 4)))
	if got := res.Delays[r2.Addr()]; got != wantDelayR2 {
		t.Errorf("r2 delay = %v, want %v", got, wantDelayR2)
	}
	if got := res.Delays[r4.Addr()]; got != wantDelayR4 {
		t.Errorf("r4 delay = %v, want %v", got, wantDelayR4)
	}
	if res.Cost != 7 {
		t.Errorf("tree cost = %d, want 7\n%s", res.Cost, res.FormatTree(g))
	}
	if res.MaxLinkCopies() != 1 {
		t.Errorf("duplicated copies on some link:\n%s", res.FormatTree(g))
	}
}

// asymGraph builds the §2.3-style pathology topology (Fig. 2/5): see
// topology.Fig2Scenario.
func asymGraph() *topology.Graph {
	return topology.Fig2Scenario().Graph
}

// TestAsymmetricShortestPath reproduces the Figure 2/5 comparison from
// HBH's side: both receivers must end up at shortest-path delay even
// though r2's join travels through C (which sits on r1's branch), the
// situation where REUNITE pins r2 to the longer path.
func TestAsymmetricShortestPath(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)

	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	r1Host := g.MustByAddr(addr.ReceiverAddr(2))
	r2Host := g.MustByAddr(addr.ReceiverAddr(3))

	src := h.source(sHost)
	r1 := h.receiver(r1Host, src.Channel())
	r2 := h.receiver(r2Host, src.Channel())

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join) // joins after r1's branch is established
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	want1 := eventsim.Time(h.routing.Dist(sHost, r1Host)) // 4 via A-B-C
	want2 := eventsim.Time(h.routing.Dist(sHost, r2Host)) // 3 via A-D
	if got := res.Delays[r1.Addr()]; got != want1 {
		t.Errorf("r1 delay = %v, want shortest-path %v", got, want1)
	}
	if got := res.Delays[r2.Addr()]; got != want2 {
		t.Errorf("r2 delay = %v, want shortest-path %v (reverse-path would be 5)", got, want2)
	}
	// Fusion must have made A the branching node: exactly one copy on
	// the S-A link and on every other link.
	if res.MaxLinkCopies() != 1 {
		t.Errorf("link duplication, fusion failed:\n%s", res.FormatTree(g))
	}
	if res.Cost != 6 {
		t.Errorf("tree cost = %d, want 6\n%s", res.Cost, res.FormatTree(g))
	}
}

// TestDeparture checks that a member leaving (silently, per the paper)
// tears its branch down while the other member's route is unaffected.
func TestDeparture(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)

	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	r1Host := g.MustByAddr(addr.ReceiverAddr(2))
	r2Host := g.MustByAddr(addr.ReceiverAddr(3))

	src := h.source(sHost)
	r1 := h.receiver(r1Host, src.Channel())
	r2 := h.receiver(r2Host, src.Channel())

	h.sim.At(10, r1.Join)
	h.sim.At(30, r2.Join)
	h.converge(t)

	before := h.probe(t, src, []mtree.Member{r1, r2})
	if !before.Complete() {
		t.Fatalf("incomplete delivery before departure: %v", before)
	}

	r1.Leave()
	// Let soft state expire: T1 + T2 plus slack.
	if err := h.sim.Run(h.sim.Now() + 3*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatalf("post-departure run: %v", err)
	}

	after := h.probe(t, src, []mtree.Member{r2})
	if len(after.Missing) != 0 || after.Duplicates != 0 {
		t.Fatalf("r2 delivery broken after r1 left: %v", after)
	}
	if r1.DeliveryCount(after.Seq) != 0 {
		t.Errorf("r1 still receives data after leaving")
	}
	want2 := eventsim.Time(h.routing.Dist(sHost, r2Host))
	if got := after.Delays[r2.Addr()]; got != want2 {
		t.Errorf("r2 delay after departure = %v, want %v (route must not change)", got, want2)
	}
	// The branch to r1 must be gone: cost is now just the S->r2 path.
	if after.Cost != 3 {
		t.Errorf("tree cost after departure = %d, want 3\n%s", after.Cost, after.FormatTree(g))
	}
}

// TestSingleReceiver exercises the degenerate tree: source + one
// member, delivery straight down the unicast path.
func TestSingleReceiver(t *testing.T) {
	g := topology.Line(3, true)
	h := newHarness(t, g)
	src := h.source(hostOf(g, 0))
	r := h.receiver(hostOf(g, 2), src.Channel())
	h.sim.At(5, r.Join)
	h.converge(t)
	res := h.probe(t, src, []mtree.Member{r})
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	if res.Cost != 4 { // host-R0? no: S host on R0: link S-R0 not traversed by data (S emits), path: S->R0,R0->R1,R1->R2,R2->host = 4 links
		t.Errorf("cost = %d, want 4\n%s", res.Cost, res.FormatTree(g))
	}
}

// TestNoMembersNoTraffic checks that an idle channel generates no data
// and the source table stays empty.
func TestNoMembersNoTraffic(t *testing.T) {
	g := topology.Line(3, true)
	h := newHarness(t, g)
	src := h.source(hostOf(g, 0))
	h.converge(t)
	if src.MFT().Len() != 0 {
		t.Errorf("source MFT has %d entries, want 0", src.MFT().Len())
	}
	if seq := src.SendData(nil); seq != 0 {
		t.Errorf("seq = %d, want 0", seq)
	}
	if err := h.sim.Run(h.sim.Now() + 100); err != nil {
		t.Fatal(err)
	}
	if h.net.Stats().DataCopies != 0 {
		t.Errorf("data copies on idle channel: %d", h.net.Stats().DataCopies)
	}
}

// TestConfigValidate: HBH's Config validates its embedded timing, and
// the attach constructors refuse a config that does not (the timing
// rules themselves are pinned in package softstate).
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil || !good.EnableFusion {
		t.Errorf("default config: err=%v fusion=%v", err, good.EnableFusion)
	}
	bad := good
	bad.T1 = bad.JoinInterval // T1 must exceed the refresh intervals
	if err := bad.Validate(); err == nil {
		t.Error("bad timing accepted through core.Config")
	}
	g := topology.Line(2, true)
	net := netsim.New(eventsim.New(), g, unicast.Compute(g))
	defer func() {
		if recover() == nil {
			t.Error("AttachRouter accepted an invalid config")
		}
	}()
	AttachRouter(net.Node(0), bad)
}
