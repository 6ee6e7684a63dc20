package invariant

import (
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// fakeProvider feeds the checker hand-crafted snapshots, so each check
// can be exercised in isolation from any protocol engine.
type fakeProvider struct {
	root      addr.Addr
	states    []NodeState
	tree      *Tree
	residuals []Residual
}

func (f *fakeProvider) Root() addr.Addr       { return f.root }
func (f *fakeProvider) States() []NodeState   { return f.states }
func (f *fakeProvider) DeliveryTree() *Tree   { return f.tree }
func (f *fakeProvider) Residuals() []Residual { return f.residuals }

func buildNet(t *testing.T, g *topology.Graph) (*netsim.Network, *eventsim.Sim) {
	t.Helper()
	sim := eventsim.New()
	return netsim.New(sim, g, unicast.Compute(g)), sim
}

func hostOf(g *topology.Graph, r int) topology.NodeID {
	for _, hID := range g.Hosts() {
		if g.AttachedRouter(hID) == topology.NodeID(r) {
			return hID
		}
	}
	panic("no host")
}

func testChannel(t *testing.T, g *topology.Graph) addr.Channel {
	t.Helper()
	ch, err := addr.NewChannel(g.Node(hostOf(g, 0)).Addr, addr.GroupAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// names extracts the invariant labels of all recorded violations.
func names(c *Checker) []string {
	out := make([]string, 0, len(c.Violations()))
	for _, v := range c.Violations() {
		out = append(out, v.Invariant)
	}
	return out
}

func wantOnly(t *testing.T, c *Checker, want ...string) {
	t.Helper()
	got := names(c)
	if len(got) != len(want) {
		t.Fatalf("violations = %v, want %v\n%s", got, want, c.Report())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violations = %v, want %v\n%s", got, want, c.Report())
		}
	}
}

func TestStructuralChecks(t *testing.T) {
	g := topology.Line(3, true)
	r0 := g.Node(0).Addr
	r1 := g.Node(1).Addr
	root := g.Node(hostOf(g, 0)).Addr

	cases := []struct {
		name  string
		state NodeState
		want  []string
	}{
		{"clean-mct", NodeState{Node: r0, HasMCT: true, MCTNode: r1}, nil},
		{"root-empty-mft-ok", NodeState{Node: root, IsRoot: true, HasMFT: true}, nil},
		{"mct-mft-exclusion", NodeState{Node: r0, HasMCT: true, HasMFT: true,
			Entries: []EntryState{{Node: r1}}}, []string{"mct-mft-exclusion"}},
		{"empty-mft", NodeState{Node: r0, HasMFT: true}, []string{"empty-mft"}},
		{"self-entry", NodeState{Node: r0, HasMFT: true,
			Entries: []EntryState{{Node: r0}}}, []string{"self-entry"}},
		{"marked-without-relay", NodeState{Node: r0, HasMFT: true,
			Entries: []EntryState{{Node: r1, Marked: true}}}, []string{"mark-sanity"}},
		{"relay-without-mark", NodeState{Node: r0, HasMFT: true,
			Entries: []EntryState{{Node: r1, ServedBy: r0}}}, []string{"mark-sanity"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, _ := buildNet(t, g)
			prov := &fakeProvider{root: root, states: []NodeState{tc.state}}
			c := New(net, testChannel(t, g), Config{Structural: true}, prov)
			c.CheckStructural()
			wantOnly(t, c, tc.want...)
			if len(tc.want) > 0 && c.Violations()[0].Node != tc.state.Node {
				t.Errorf("violation attributed to %v, want %v",
					c.Violations()[0].Node, tc.state.Node)
			}
		})
	}
}

func TestLoopCheck(t *testing.T) {
	g := topology.Line(3, true)
	net, _ := buildNet(t, g)
	root := g.Node(hostOf(g, 0)).Addr
	r1 := g.Node(1).Addr

	tree := NewTree(root)
	tree.AddLoop([]addr.Addr{root, r1, root})
	prov := &fakeProvider{root: root, tree: tree}
	c := New(net, testChannel(t, g), Config{LoopFree: true}, prov)
	c.CheckConverged(0)
	wantOnly(t, c, "loop")
	if v := c.Violations()[0]; v.Node != root {
		t.Errorf("loop attributed to %v, want the revisited node %v", v.Node, root)
	} else if v.Tree == "" {
		t.Errorf("loop violation carries no tree dump")
	}
}

func TestSpanningAndUniqueService(t *testing.T) {
	g := topology.Line(3, true)
	net, _ := buildNet(t, g)
	root := g.Node(hostOf(g, 0)).Addr
	m1 := g.Node(hostOf(g, 1)).Addr
	m2 := g.Node(hostOf(g, 2)).Addr

	tree := NewTree(root)
	tree.AddChain(m2, []addr.Addr{root})
	tree.AddChain(m2, []addr.Addr{root, g.Node(1).Addr}) // parallel chain
	prov := &fakeProvider{root: root, tree: tree}
	c := New(net, testChannel(t, g), Config{Spanning: true, UniqueService: true}, prov)
	c.SetMembers([]addr.Addr{m1, m2})
	c.CheckConverged(0)
	wantOnly(t, c, "spanning", "unique-service")
	if v := c.Violations()[0]; v.Node != m1 {
		t.Errorf("spanning violation at %v, want the unserved member %v", v.Node, m1)
	}
	if v := c.Violations()[1]; v.Node != m2 {
		t.Errorf("unique-service violation at %v, want the doubly-served member %v", v.Node, m2)
	}
}

func TestShortestPathCheck(t *testing.T) {
	g := topology.Line(5, true)
	net, _ := buildNet(t, g)
	root := g.Node(hostOf(g, 0)).Addr
	mid := g.Node(hostOf(g, 2)).Addr
	member := g.Node(hostOf(g, 4)).Addr

	// Chain via the midpoint host costs two extra host links (8 vs the
	// direct 6): a detour the shortest-path invariant must flag.
	bad := NewTree(root)
	bad.AddChain(member, []addr.Addr{root, mid})
	c := New(net, testChannel(t, g), Config{ShortestPath: true},
		&fakeProvider{root: root, tree: bad})
	c.SetMembers([]addr.Addr{member})
	c.CheckConverged(0)
	wantOnly(t, c, "shortest-path")

	good := NewTree(root)
	good.AddChain(member, []addr.Addr{root})
	c2 := New(net, testChannel(t, g), Config{ShortestPath: true},
		&fakeProvider{root: root, tree: good})
	c2.SetMembers([]addr.Addr{member})
	c2.CheckConverged(0)
	wantOnly(t, c2)
}

func TestDeliveryChecks(t *testing.T) {
	g := topology.Line(3, true)
	net, sim := buildNet(t, g)
	ch := testChannel(t, g)
	member := g.Node(hostOf(g, 2)).Addr
	c := New(net, ch, Config{Delivery: true, LinkUnique: true}, nil)
	c.SetMembers([]addr.Addr{member})

	send := func(seq uint32) {
		net.NodeByAddr(ch.S).SendUnicast(&packet.Data{
			Header: packet.Header{
				Type: packet.TypeData, Channel: ch, Src: ch.S, Dst: member,
			},
			Seq: seq,
		})
	}

	send(7)
	send(8)
	send(8) // duplicate copy retraces every link
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}

	c.CheckConverged(7)
	wantOnly(t, c)

	c.CheckConverged(9) // never sent
	wantOnly(t, c, "delivery-missing")
	if v := c.Violations()[0]; v.Node != member || v.Channel != ch {
		t.Errorf("missing-delivery attributed to node=%v channel=%v", v.Node, v.Channel)
	}

	c2 := New(net, ch, Config{Delivery: true, LinkUnique: true}, nil)
	c2.SetMembers([]addr.Addr{member})
	send(11)
	send(11)
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	c2.CheckConverged(11)
	got := names(c2)
	var dup, link bool
	for _, n := range got {
		dup = dup || n == "delivery-dup"
		link = link || n == "link-dup"
	}
	if !dup || !link {
		t.Fatalf("violations = %v, want delivery-dup and link-dup", got)
	}
}

func TestQuiescentCheck(t *testing.T) {
	g := topology.Line(3, true)
	net, _ := buildNet(t, g)
	r1 := g.Node(1).Addr
	prov := &fakeProvider{
		root:      g.Node(hostOf(g, 0)).Addr,
		residuals: []Residual{{Node: r1, Detail: "dedup window still holds 3 sequence numbers"}},
	}
	c := New(net, testChannel(t, g), Config{Leaks: true}, prov)
	c.CheckQuiescent()
	wantOnly(t, c, "soft-state-leak")
	if v := c.Violations()[0]; v.Node != r1 {
		t.Errorf("leak attributed to %v, want %v", v.Node, r1)
	}
}

func TestReportAndMustClean(t *testing.T) {
	g := topology.Line(3, true)
	net, _ := buildNet(t, g)
	c := New(net, testChannel(t, g), Config{Structural: true}, &fakeProvider{
		root: g.Node(hostOf(g, 0)).Addr,
		states: []NodeState{
			{Node: g.Node(0).Addr, HasMCT: true, HasMFT: true},
		},
	})
	if !c.Clean() || c.Report() != "" {
		t.Fatalf("fresh checker not clean")
	}
	c.CheckStructural()
	if c.Clean() {
		t.Fatal("violation not recorded")
	}
	if !strings.Contains(c.Report(), "mct-mft-exclusion") {
		t.Errorf("report does not name the invariant:\n%s", c.Report())
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("MustClean did not panic on violations")
		}
	}()
	c.MustClean("unit test")
}

// TestViolationCap pins the flood guard: a broken protocol trips
// invariants on every event, and only the first maxViolations carry
// diagnostic value.
func TestViolationCap(t *testing.T) {
	g := topology.Line(3, true)
	net, _ := buildNet(t, g)
	bad := NodeState{Node: g.Node(0).Addr, HasMCT: true, HasMFT: true,
		Entries: []EntryState{{Node: g.Node(1).Addr}}}
	c := New(net, testChannel(t, g), Config{Structural: true},
		&fakeProvider{root: g.Node(hostOf(g, 0)).Addr, states: []NodeState{bad}})
	for i := 0; i < maxViolations+10; i++ {
		c.CheckStructural()
	}
	if len(c.Violations()) != maxViolations {
		t.Errorf("recorded %d violations, want cap %d", len(c.Violations()), maxViolations)
	}
	if c.Clean() {
		t.Error("suppressed violations must keep the checker dirty")
	}
	if !strings.Contains(c.Report(), "suppressed") {
		t.Errorf("report does not mention suppression:\n%s", c.Report())
	}
}

// TestInstallContinuousNeedsObserver: a continuous checker learns of
// table changes from its observer's stream; without one it would check
// nothing, so installing it panics.
func TestInstallContinuousNeedsObserver(t *testing.T) {
	g := topology.Line(3, true)
	net, sim := buildNet(t, g)
	c := New(net, testChannel(t, g), Config{Structural: true}, &fakeProvider{})
	defer func() {
		if recover() == nil {
			t.Error("InstallContinuous accepted a checker with no observer")
		}
	}()
	InstallContinuous(sim, c)
}

// TestContinuousCheckFollowsMutations: the after-event hook runs the
// structural checks when, and only when, a structural mutation of the
// checker's own channel crossed the observer since the last check.
func TestContinuousCheckFollowsMutations(t *testing.T) {
	g := topology.Line(3, true)
	net, sim := buildNet(t, g)
	ch := testChannel(t, g)
	r0 := g.Node(0).Addr
	// A standing breach: the check reports it whenever it runs.
	prov := &fakeProvider{root: ch.S, states: []NodeState{{Node: r0, HasMFT: true}}}
	c := New(net, ch, Config{Structural: true}, prov)
	o := obs.New(nil)
	net.SetObserver(o)
	c.SetObserver(o)
	InstallContinuous(sim, c)

	run := func(at eventsim.Time, ev obs.Event) {
		t.Helper()
		sim.At(at, func() { o.Emit(ev) })
		if err := sim.Run(at); err != nil {
			t.Fatal(err)
		}
	}
	run(1, obs.Event{Kind: obs.KindTableAdd, Channel: addr.Channel{S: r0, G: ch.G}})
	run(2, obs.Event{Kind: obs.KindTreeSend, Channel: ch})
	wantOnly(t, c)
	run(3, obs.Event{Kind: obs.KindTableAdd, Channel: ch})
	wantOnly(t, c, "empty-mft")
	run(4, obs.Event{Kind: obs.KindTreeSend, Channel: ch})
	wantOnly(t, c, "empty-mft")
}
