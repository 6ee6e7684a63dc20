package pim

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/mtree"
	"hbh/internal/testseed"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func TestModeString(t *testing.T) {
	if SS.String() != "PIM-SS" || SM.String() != "PIM-SM" {
		t.Error("Mode.String broken")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestDelayOptimalRPDeterministic(t *testing.T) {
	g := topology.ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(5)), 1, 10)
	r := unicast.Compute(g)
	src := topology.ISPSourceHost
	a := DelayOptimalRP(r, src)
	b := DelayOptimalRP(r, src)
	if a != b {
		t.Error("RP choice not deterministic")
	}
	if g.Node(a).Kind != topology.Router {
		t.Error("RP is not a router")
	}
}

func TestTreeLinksAndAccessors(t *testing.T) {
	g := topology.Line(4, true)
	net, _, sim := buildNet(g)
	members := []topology.NodeID{hostOf(g, 2), hostOf(g, 3)}
	s := Build(net, SS, hostOf(g, 0), addr.GroupAddr(0), members, topology.None)
	if s.Channel().S != g.Node(hostOf(g, 0)).Addr {
		t.Error("channel source mismatch")
	}
	if s.RP() != topology.None {
		t.Error("SS session has an RP")
	}
	// One packet crosses each tree link once: host->R0->R1->R2->host2
	// and R2->R3->host3 dedup the shared prefix, 4 + 2 = 6.
	s.SendData(nil)
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().DataCopies; got != 6 {
		t.Errorf("one packet made %d data copies, want 6 tree links", got)
	}
	if len(s.Members()) != 2 {
		t.Errorf("Members = %d", len(s.Members()))
	}
}

func TestBuildValidation(t *testing.T) {
	g := topology.Line(3, true)
	net, _, _ := buildNet(g)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("router source", func() {
		Build(net, SS, 0, addr.GroupAddr(0), nil, topology.None)
	})
	expectPanic("router member", func() {
		Build(net, SS, hostOf(g, 0), addr.GroupAddr(0), []topology.NodeID{1}, topology.None)
	})
	expectPanic("host RP", func() {
		Build(net, SM, hostOf(g, 0), addr.GroupAddr(0),
			[]topology.NodeID{hostOf(g, 2)}, hostOf(g, 1))
	})
}

func TestSMNoMembers(t *testing.T) {
	g := topology.Line(3, true)
	net, _, sim := buildNet(g)
	s := Build(net, SM, hostOf(g, 0), addr.GroupAddr(0), nil, 1)
	// Sending into an empty shared tree reaches the RP and stops.
	s.SendData(nil)
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	// The unicast leg host->R0->R1 is the only traffic: no tree links.
	if st := net.Stats(); st.DataCopies != 2 || st.DataDelivered != 0 {
		t.Errorf("empty session: %d data copies, %d delivered; want the 2-link leg to the RP, 0",
			st.DataCopies, st.DataDelivered)
	}
}

func TestMemberDeliveryCounters(t *testing.T) {
	g := topology.Line(3, true)
	net, _, _ := buildNet(g)
	members := []topology.NodeID{hostOf(g, 2)}
	s := Build(net, SS, hostOf(g, 0), addr.GroupAddr(0), members, topology.None)
	m := s.Member(members[0])
	if _, ok := m.DeliveryAt(0); ok {
		t.Error("delivery reported before send")
	}
	res := probe(net, s, []mtree.Member{m})
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	if m.DeliveryCount(res.Seq) != 1 {
		t.Errorf("count = %d", m.DeliveryCount(res.Seq))
	}
}

// pathRevDelay is the reverse-path delay by definition, the oracle for
// DelayOptimalRP's memoised walk: the forward cost of the links of the
// unicast path r -> x, traversed backwards.
func pathRevDelay(rt unicast.Router, x, r topology.NodeID) int {
	g := rt.Graph()
	p := rt.Path(r, x)
	if p == nil {
		return unicast.Infinity
	}
	d := 0
	for i := len(p) - 1; i > 0; i-- {
		d += g.Cost(p[i], p[i-1])
	}
	return d
}

// pathOptimalRP is DelayOptimalRP computed one path per (candidate,
// host) pair, with the same sums and tie-break.
func pathOptimalRP(rt unicast.Router, sourceHost topology.NodeID) topology.NodeID {
	g := rt.Graph()
	best, bestSum := topology.None, -1
	for _, cand := range g.Routers() {
		leg := rt.Dist(sourceHost, cand)
		if leg == unicast.Infinity {
			continue
		}
		sum := 0
		for _, h := range g.Hosts() {
			if h == sourceHost {
				continue
			}
			rd := pathRevDelay(rt, cand, h)
			if rd == unicast.Infinity {
				sum = -1
				break
			}
			sum += leg + rd
		}
		if sum < 0 {
			continue
		}
		if best == topology.None || sum < bestSum {
			best, bestSum = cand, sum
		}
	}
	return best
}

// TestDelayOptimalRPMatchesPathOracle: on asymmetric cost draws over
// the paper topologies and BA graphs, the memoised in-tree walk picks
// the same RP as summing one path per host, for every host as source.
func TestDelayOptimalRPMatchesPathOracle(t *testing.T) {
	rng := testseed.Rand(t)
	graphs := []struct {
		name string
		make func() *topology.Graph
	}{
		{"isp", topology.ISP},
		{"random50", func() *topology.Graph { return topology.Random(topology.Paper50(), rng) }},
		{"ba", func() *topology.Graph {
			return topology.BarabasiAlbert(topology.BAConfig{Routers: 3 + rng.Intn(40), M: 1 + rng.Intn(3), Hosts: true}, rng)
		}},
	}
	for _, gc := range graphs {
		for trial := range 4 {
			g := gc.make()
			g.RandomizeCosts(rng, 1, 10)
			r := unicast.Compute(g)
			for _, src := range g.Hosts() {
				if got, want := DelayOptimalRP(r, src), pathOptimalRP(r, src); got != want {
					t.Fatalf("%s trial %d source %d: RP %d, path oracle %d", gc.name, trial, src, got, want)
				}
			}
		}
	}
}

// TestDelayOptimalRPAllocs: the RP choice allocates its scratch once
// per call, so its allocation count does not grow with routers × hosts
// (ISP: 18 × 18, random50: 50 × 50).
func TestDelayOptimalRPAllocs(t *testing.T) {
	allocs := func(g *topology.Graph) float64 {
		g.RandomizeCosts(rand.New(rand.NewSource(3)), 1, 10)
		r := unicast.Compute(g)
		src := g.Hosts()[0]
		return testing.AllocsPerRun(20, func() { DelayOptimalRP(r, src) })
	}
	isp := allocs(topology.ISP())
	r50 := allocs(topology.Random(topology.Paper50(), rand.New(rand.NewSource(1))))
	if isp != r50 || isp > 2 {
		t.Errorf("allocs per call: ISP %.0f, random50 %.0f; want equal and at most 2", isp, r50)
	}
}
