package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/testseed"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestSmokeAllProtocols runs every protocol on both topologies over a
// few seeds: every receiver must get the probe exactly once, and HBH
// must never leave duplicate copies on a link.
func TestSmokeAllProtocols(t *testing.T) {
	for _, topo := range []Topo{TopoISP, TopoRandom50} {
		for _, p := range []Protocol{HBH, HBHNoFusion, REUNITE, PIMSM, PIMSS} {
			for seed := int64(1); seed <= 4; seed++ {
				r := Run(RunConfig{Topo: topo, Protocol: p, Receivers: 8, Seed: seed})
				if r.Missing > 0 {
					t.Errorf("%s/%s seed %d: %d receivers missing", topo, p, seed, r.Missing)
				}
				if p == HBH && r.MaxLinkCopies > 1 {
					t.Errorf("%s/HBH seed %d: %d copies on one link (fusion failed)",
						topo, seed, r.MaxLinkCopies)
				}
				if p == HBH && r.Duplicates > 0 {
					t.Errorf("%s/HBH seed %d: %d duplicate deliveries", topo, seed, r.Duplicates)
				}
				if (p == PIMSM || p == PIMSS) && r.MaxLinkCopies > 1 {
					t.Errorf("%s/%s seed %d: RPF must give one copy per link", topo, p, seed)
				}
			}
		}
	}
}

// TestRunDeterministic: identical configs give identical results.
func TestRunDeterministic(t *testing.T) {
	for _, p := range []Protocol{HBH, REUNITE, PIMSM} {
		a := Run(RunConfig{Topo: TopoISP, Protocol: p, Receivers: 6, Seed: 99})
		b := Run(RunConfig{Topo: TopoISP, Protocol: p, Receivers: 6, Seed: 99})
		if a != b {
			t.Errorf("%s: same seed diverged: %+v vs %+v", p, a, b)
		}
	}
}

// TestQuickHBHShortestPathTree is the paper's central claim as a
// property test: on a converged HBH tree over a random topology with
// random asymmetric costs, EVERY receiver's delay equals the unicast
// shortest-path distance from the source — HBH builds true SPTs, not
// reverse SPTs — and no link carries more than one copy.
func TestQuickHBHShortestPathTree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 8 + rng.Intn(12), AvgDegree: 3.5, Hosts: true,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		routing := unicast.Compute(g)

		sim := eventsim.New()
		net := netsim.New(sim, g, routing)
		cfg := core.DefaultConfig()
		for _, r := range g.Routers() {
			core.AttachRouter(net.Node(r), cfg)
		}
		srcHost := g.Hosts()[0]
		src := core.AttachSource(net.Node(srcHost), addr.GroupAddr(0), cfg)

		nMembers := 2 + rng.Intn(5)
		members := make([]mtree.Member, 0, nMembers)
		pool := append([]topology.NodeID(nil), g.Hosts()[1:]...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, h := range pool[:nMembers] {
			rcv := core.AttachReceiver(net.Node(h), src.Channel(), cfg)
			at := eventsim.Time(rng.Float64() * 100)
			sim.At(at, rcv.Join)
			members = append(members, rcv)
		}
		if err := sim.Run(sim.Now() + 4000); err != nil {
			return false
		}
		res := mtree.Probe(net, func() uint32 { return src.SendData(nil) }, members)
		// Relay collapse proceeds one soft-state generation per step, so
		// rare inputs are still mid-cascade at the first horizon; the
		// property is about the converged tree, so settle before judging.
		for attempt := 0; attempt < 3 && (!res.Complete() || res.MaxLinkCopies() != 1); attempt++ {
			if err := sim.Run(sim.Now() + 8*cfg.TreeInterval); err != nil {
				return false
			}
			res = mtree.Probe(net, func() uint32 { return src.SendData(nil) }, members)
		}
		if !res.Complete() {
			return false
		}
		if res.MaxLinkCopies() != 1 {
			return false
		}
		for _, m := range members {
			want := routing.Dist(srcHost, g.MustByAddr(m.Addr()))
			if res.Delays[m.Addr()] != eventsim.Time(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

// TestQuickHBHCostNeverAboveStar: the converged HBH tree never costs
// more than per-receiver unicast (the no-fusion star) on the same
// scenario — fusion only ever removes copies.
func TestQuickHBHCostNeverAboveStar(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw) + 1
		withFusion := Run(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 8, Seed: seed})
		star := Run(RunConfig{Topo: TopoISP, Protocol: HBHNoFusion, Receivers: 8, Seed: seed})
		return withFusion.Cost <= star.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

// TestPIMSSDelayLowerBoundsNothing: HBH's delay is never worse than
// PIM-SS's on the same scenario (forward SPT <= reverse SPT in the
// forward metric).
func TestHBHDelayAtMostPIMSS(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		h := Run(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 8, Seed: seed})
		p := Run(RunConfig{Topo: TopoISP, Protocol: PIMSS, Receivers: 8, Seed: seed})
		if h.Missing > 0 || p.Missing > 0 {
			t.Fatalf("seed %d: missing deliveries", seed)
		}
		if h.MeanDelay > p.MeanDelay+1e-9 {
			t.Errorf("seed %d: HBH delay %.2f > PIM-SS %.2f", seed, h.MeanDelay, p.MeanDelay)
		}
	}
}

func TestSweepShapes(t *testing.T) {
	cost, delay := PaperFigures(TopoISP, 8, 42)
	if cost.ID != "7a" || delay.ID != "8a" {
		t.Errorf("figure IDs = %s/%s", cost.ID, delay.ID)
	}
	if len(cost.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(cost.Series))
	}
	for _, s := range cost.Series {
		if len(s.X) != len(ISPSizes()) {
			t.Errorf("series %s has %d points", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if y.N() != 8 {
				t.Errorf("series %s point has %d samples, want 8", s.Name, y.N())
			}
			if y.Mean() <= 0 {
				t.Errorf("series %s has non-positive mean", s.Name)
			}
		}
	}
	// Cost grows with group size for every protocol.
	for _, s := range cost.Series {
		if first, last := s.Y[0].Mean(), s.Y[len(s.Y)-1].Mean(); last <= first {
			t.Errorf("series %s cost did not grow: %v -> %v", s.Name, first, last)
		}
	}
	// Tables render.
	tab := cost.FormatTable()
	for _, want := range []string{"HBH", "REUNITE", "PIM-SM", "PIM-SS", "avg"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	csv := cost.FormatCSV()
	if !strings.HasPrefix(csv, "x,PIM-SM,PIM-SS,REUNITE,HBH") {
		t.Errorf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if cost.SeriesByName("HBH") == nil || cost.SeriesByName("nope") != nil {
		t.Error("SeriesByName broken")
	}
}

func TestStabilityExperiment(t *testing.T) {
	res := StabilityExperiment(StabilityConfig{
		Topo: TopoISP, Receivers: 6, Runs: 10, Seed: 5,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var hbhRow, reuRow *StabilityRow
	for _, r := range res.Rows {
		switch r.Protocol {
		case HBH:
			hbhRow = r
		case REUNITE:
			reuRow = r
		}
	}
	if hbhRow == nil || reuRow == nil {
		t.Fatal("missing protocol rows")
	}
	// The paper's claim: departures never change HBH routes of the
	// remaining members.
	if hbhRow.RouteChanged.Mean() != 0 {
		t.Errorf("HBH route changes per departure = %v, want 0", hbhRow.RouteChanged.Mean())
	}
	if !strings.Contains(res.FormatTable(), "HBH") {
		t.Error("FormatTable missing HBH row")
	}
}

// TestUnicastCloudsMonotone: with fewer multicast-capable routers the
// HBH tree can only get more expensive (fewer branching opportunities),
// while delivery stays complete.
func TestUnicastCloudsMonotone(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		full := Run(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 8, Seed: seed})
		none := Run(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 8, Seed: seed,
			MulticastFraction: 0.001})
		if full.Missing > 0 || none.Missing > 0 {
			t.Fatalf("seed %d: missing deliveries", seed)
		}
		if full.Cost > none.Cost {
			t.Errorf("seed %d: full deployment cost %d > none %d", seed, full.Cost, none.Cost)
		}
		// With no capable routers the delays are still shortest-path
		// (pure unicast star over SPTs).
		if full.MeanDelay != none.MeanDelay {
			t.Errorf("seed %d: delay changed with deployment: %.2f vs %.2f",
				seed, full.MeanDelay, none.MeanDelay)
		}
	}
}

func TestBaseGraphCached(t *testing.T) {
	a := BaseGraph(TopoISP)
	b := BaseGraph(TopoISP)
	if a != b {
		t.Error("BaseGraph not cached")
	}
	if BaseGraph(TopoRandom50) == nil {
		t.Error("random base graph nil")
	}
}

func TestBaseGraphFrozen(t *testing.T) {
	topos := []Topo{TopoISP, TopoRandom50, TopoNSFNET, TopoAbilene,
		TopoWaxman40, TopoBA48, TopoTransitStub44}
	for _, topo := range topos {
		g := BaseGraph(topo)
		if !g.Frozen() {
			t.Errorf("BaseGraph(%s) not frozen", topo)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mutating cached %s base did not panic", topo)
				}
			}()
			e := g.Edges()[0]
			g.SetLinkCost(e.A, e.B, 1, 1)
		}()
		if g.Clone().Frozen() {
			t.Errorf("Clone of %s base still frozen", topo)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero receivers", func() {
		Run(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 0, Seed: 1})
	})
	expectPanic("unknown protocol", func() {
		Run(RunConfig{Topo: TopoISP, Protocol: "nope", Receivers: 2, Seed: 1})
	})
	expectPanic("unknown topology", func() {
		Run(RunConfig{Topo: "nope", Protocol: HBH, Receivers: 2, Seed: 1})
	})
	expectPanic("too many receivers", func() {
		Run(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 1000, Seed: 1})
	})
}
