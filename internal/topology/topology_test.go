package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/testseed"
)

func TestISPShape(t *testing.T) {
	g := ISP()
	if got := len(g.Routers()); got != NumISPRouters {
		t.Errorf("routers = %d, want %d", got, NumISPRouters)
	}
	if got := len(g.Hosts()); got != NumISPRouters {
		t.Errorf("hosts = %d, want %d", got, NumISPRouters)
	}
	// 30 router-router links + 18 host links.
	if got := g.NumEdges(); got != 48 {
		t.Errorf("links = %d, want 48", got)
	}
	// The paper quotes connectivity 3.3.
	if d := g.AvgRouterDegree(); d < 3.2 || d > 3.5 {
		t.Errorf("avg router degree = %.2f, want ~3.33", d)
	}
	if !g.Connected() {
		t.Error("ISP graph disconnected")
	}
	// Node 18 (the host on router 0) is the fixed source.
	if ISPSourceHost != 18 {
		t.Errorf("ISPSourceHost = %d, want 18", ISPSourceHost)
	}
	if g.Node(ISPSourceHost).Kind != Host {
		t.Error("source node is not a host")
	}
	if g.AttachedRouter(ISPSourceHost) != 0 {
		t.Errorf("source attached to router %d, want 0", g.AttachedRouter(ISPSourceHost))
	}
	// Host i+18 hangs off router i, as in Figure 6.
	for i := 0; i < NumISPRouters; i++ {
		h := NodeID(NumISPRouters + i)
		if g.Node(h).Kind != Host {
			t.Fatalf("node %d not a host", h)
		}
		if got := g.AttachedRouter(h); got != NodeID(i) {
			t.Errorf("host %d attached to %d, want %d", h, got, i)
		}
	}
}

func TestRandomShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Random(Paper50(), rng)
	if got := len(g.Routers()); got != 50 {
		t.Errorf("routers = %d, want 50", got)
	}
	if got := len(g.Hosts()); got != 50 {
		t.Errorf("hosts = %d, want 50", got)
	}
	if d := g.AvgRouterDegree(); d < 8.4 || d > 8.8 {
		t.Errorf("avg router degree = %.2f, want ~8.6", d)
	}
	if !g.Connected() {
		t.Error("random graph disconnected")
	}
}

// TestQuickRandomConnected: every generated random topology is
// connected, has the requested router count and roughly the requested
// degree, regardless of seed.
func TestQuickRandomConnected(t *testing.T) {
	f := func(seed int64, routersRaw uint8, degRaw uint8) bool {
		routers := 3 + int(routersRaw)%40
		maxDeg := float64(routers - 1)
		deg := 2 + float64(degRaw)/256*(maxDeg-2)
		g := Random(RandomConfig{Routers: routers, AvgDegree: deg, Hosts: true},
			rand.New(rand.NewSource(seed)))
		return g.Connected() && len(g.Routers()) == routers && len(g.Hosts()) == routers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Random(Paper50(), rand.New(rand.NewSource(11)))
	b := Random(Paper50(), rand.New(rand.NewSource(11)))
	if a.String() != b.String() {
		t.Error("same seed produced different graphs")
	}
	c := Random(Paper50(), rand.New(rand.NewSource(12)))
	if a.String() == c.String() {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomizeCostsRange(t *testing.T) {
	g := ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(1)), 1, 10)
	lo, hi := 100, 0
	asym := false
	for _, e := range g.Edges() {
		for _, c := range []int{e.CostAB, e.CostBA} {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if e.CostAB != e.CostBA {
			asym = true
		}
		// Adjacency must agree with the edge record.
		if g.Cost(e.A, e.B) != e.CostAB || g.Cost(e.B, e.A) != e.CostBA {
			t.Fatalf("adjacency/edge cost mismatch on %d-%d", e.A, e.B)
		}
	}
	if lo < 1 || hi > 10 {
		t.Errorf("costs outside [1,10]: lo=%d hi=%d", lo, hi)
	}
	if !asym {
		t.Error("no asymmetric link after randomization (vanishingly unlikely)")
	}
}

func TestPerturbCosts(t *testing.T) {
	g := ISP()
	// spread 0 must give symmetric costs.
	g.PerturbCosts(rand.New(rand.NewSource(3)), 1, 10, 0)
	for _, e := range g.Edges() {
		if e.CostAB != e.CostBA {
			t.Fatalf("spread 0 produced asymmetric link %d-%d", e.A, e.B)
		}
	}
	// Positive spread produces some asymmetry and keeps costs >= 1.
	g.PerturbCosts(rand.New(rand.NewSource(4)), 1, 10, 6)
	asym := false
	for _, e := range g.Edges() {
		if e.CostAB != e.CostBA {
			asym = true
		}
		if e.CostAB < 1 || e.CostBA < 1 {
			t.Fatalf("cost below 1 on %d-%d", e.A, e.B)
		}
	}
	if !asym {
		t.Error("spread 6 produced no asymmetry")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(9)), 1, 10)
	c := g.Clone()
	c.RandomizeCosts(rand.New(rand.NewSource(10)), 1, 10)
	same := true
	for i, e := range g.Edges() {
		ce := c.Edges()[i]
		if e.CostAB != ce.CostAB || e.CostBA != ce.CostBA {
			same = false
		}
	}
	if same {
		t.Error("clone shares cost state with original (very unlikely by chance)")
	}
	// Structure identical.
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Error("clone structure differs")
	}
	if _, ok := c.ByAddr(g.Node(0).Addr); !ok {
		t.Error("clone lost address index")
	}
}

func TestGraphConstructionPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	g := New()
	a := g.AddNode(Router, addr.RouterAddr(0), "A")
	b := g.AddNode(Router, addr.RouterAddr(1), "B")
	g.AddLink(a, b, 1, 1)
	expectPanic("self-loop", func() { g.AddLink(a, a, 1, 1) })
	expectPanic("duplicate link", func() { g.AddLink(a, b, 2, 2) })
	expectPanic("zero cost", func() {
		c := g.AddNode(Router, addr.RouterAddr(2), "C")
		g.AddLink(a, c, 0, 1)
	})
	expectPanic("duplicate address", func() { g.AddNode(Router, addr.RouterAddr(0), "dup") })
	expectPanic("multicast node address", func() { g.AddNode(Host, addr.GroupAddr(1), "mc") })
	expectPanic("unknown node in link", func() { g.AddLink(a, NodeID(99), 1, 1) })
}

func TestAttachedRouterPanics(t *testing.T) {
	g := Line(2, true)
	defer func() {
		if recover() == nil {
			t.Error("AttachedRouter on a router did not panic")
		}
	}()
	g.AttachedRouter(0) // node 0 is a router
}

func TestLine(t *testing.T) {
	g := Line(4, true)
	if g.NumEdges() != 3+4 {
		t.Errorf("edges = %d, want 7", g.NumEdges())
	}
	if !g.Connected() {
		t.Error("line disconnected")
	}
	if d := len(g.Neighbors(0)); d != 2 { // R1 + host
		t.Errorf("degree(R0) = %d, want 2", d)
	}
}

func TestScenarios(t *testing.T) {
	for name, sc := range map[string]Scenario{
		"fig2": Fig2Scenario(),
		"fig3": Fig3Scenario(),
	} {
		if !sc.Graph.Connected() {
			t.Errorf("%s disconnected", name)
		}
		for _, h := range []NodeID{sc.Source, sc.R1, sc.R2} {
			if sc.Graph.Node(h).Kind != Host {
				t.Errorf("%s: node %d not a host", name, h)
			}
		}
	}
}

func TestString(t *testing.T) {
	g := Line(2, false)
	s := g.String()
	if !strings.Contains(s, "R0 <-> R1") {
		t.Errorf("String missing link line:\n%s", s)
	}
}

func TestHasLinkAndCost(t *testing.T) {
	g := Line(3, false)
	if !g.HasLink(0, 1) || !g.HasLink(1, 0) {
		t.Error("HasLink false for existing link")
	}
	if g.HasLink(0, 2) {
		t.Error("HasLink true for absent link")
	}
	if g.HasLink(0, NodeID(55)) {
		t.Error("HasLink true for unknown node")
	}
	if g.Cost(0, 2) != 0 {
		t.Error("Cost nonzero for absent link")
	}
}
