// Package experiment is the evaluation harness: it reproduces every
// figure of the paper's §4 (tree cost and receiver delay for HBH,
// REUNITE, PIM-SM and PIM-SS over the ISP and 50-node random
// topologies), the §3/Figure 4 departure-stability comparison, and the
// ablation/extension studies listed in DESIGN.md.
//
// The methodology follows the paper: one multicast channel, the source
// fixed at node 18's host (router 0), a variable number of receivers
// drawn uniformly from the potential-receiver hosts, every directed
// link cost redrawn uniformly from [1,10] per run, and 500 runs
// averaged per data point.
package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Protocol identifies one protocol under test.
type Protocol string

// The protocols of the paper's evaluation, plus the fusion ablation.
const (
	HBH         Protocol = "HBH"
	HBHNoFusion Protocol = "HBH-nofusion"
	REUNITE     Protocol = "REUNITE"
	PIMSM       Protocol = "PIM-SM"
	PIMSS       Protocol = "PIM-SS"
)

// AllPaperProtocols lists the four curves of Figures 7 and 8 in the
// paper's legend order.
func AllPaperProtocols() []Protocol {
	return []Protocol{PIMSM, PIMSS, REUNITE, HBH}
}

// Topo selects the evaluation topology.
type Topo string

const (
	// TopoISP is the 18-router ISP topology of Figure 6.
	TopoISP Topo = "isp"
	// TopoRandom50 is the 50-node random topology (connectivity 8.6).
	TopoRandom50 Topo = "random50"
	// TopoNSFNET is the classic 14-router NSFNET T1 backbone, an extra
	// substrate for checking that the paper's orderings are not
	// topology artefacts.
	TopoNSFNET Topo = "nsfnet"
	// TopoAbilene is the 11-router Abilene/Internet2 backbone.
	TopoAbilene Topo = "abilene"
	// TopoWaxman40 is a 40-router Waxman random graph (distance-weighted
	// edge probability), fixed structure like random50 with costs redrawn
	// per run. Bounded-n stand-in for the Internet-scale substrates the
	// A13 sweep generates on the fly.
	TopoWaxman40 Topo = "waxman40"
	// TopoBA48 is a 48-router Barabási–Albert preferential-attachment
	// graph (power-law degrees, m=2): hub-and-spoke structure at a size
	// every protocol and the fuzzer can still run exhaustively.
	TopoBA48 Topo = "ba48"
	// TopoTransitStub44 is a two-tier transit-stub hierarchy: a 4-router
	// transit core with 8 stub domains of 5 routers each (44 routers).
	TopoTransitStub44 Topo = "transitstub44"
)

// randomTopoSeed fixes the 50-node topology's structure: the paper
// evaluates one random topology with costs redrawn per run, not a new
// graph per run.
const randomTopoSeed = 424242

var (
	baseMu     sync.Mutex
	baseGraphs = map[Topo]*topology.Graph{}
)

// BaseGraph returns the shared, cost-uninitialised base topology. The
// returned graph is frozen: callers must Clone before mutating costs,
// and a missed Clone panics instead of silently corrupting every later
// run sharing the base.
func BaseGraph(t Topo) *topology.Graph {
	baseMu.Lock()
	defer baseMu.Unlock()
	if g, ok := baseGraphs[t]; ok {
		return g
	}
	var g *topology.Graph
	switch t {
	case TopoISP:
		g = topology.ISP()
	case TopoRandom50:
		g = topology.Random(topology.Paper50(), rand.New(rand.NewSource(randomTopoSeed)))
	case TopoNSFNET:
		g = topology.NSFNET()
	case TopoAbilene:
		g = topology.Abilene()
	case TopoWaxman40:
		g = topology.Waxman(topology.WaxmanConfig{Routers: 40, Alpha: 0.2, Beta: 0.25, Hosts: true},
			rand.New(rand.NewSource(randomTopoSeed)))
	case TopoBA48:
		g = topology.BarabasiAlbert(topology.BAConfig{Routers: 48, M: 2, Hosts: true},
			rand.New(rand.NewSource(randomTopoSeed)))
	case TopoTransitStub44:
		g = topology.TransitStub(topology.TransitStubConfig{
			Transits: 4, TransitDegree: 3, Stubs: 8, StubRouters: 5,
			StubDegree: 2.5, ExtraStubLinks: 3, Hosts: true,
		}, rand.New(rand.NewSource(randomTopoSeed)))
	default:
		panic(fmt.Sprintf("experiment: unknown topology %q", t))
	}
	g.Freeze()
	baseGraphs[t] = g
	return g
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// Topo selects the base topology.
	Topo Topo
	// Protocol selects the protocol under test.
	Protocol Protocol
	// Receivers is the group size (receivers drawn at random among the
	// potential-receiver hosts, excluding the source's).
	Receivers int
	// Seed drives cost assignment, receiver choice and join timing.
	Seed int64
	// AsymSpread, when >= 0, switches cost assignment to symmetric
	// base costs skewed per direction by up to AsymSpread (the A3
	// asymmetry sweep). -1 (default via zero value handling below)
	// uses the paper's fully independent per-direction draw.
	AsymSpread int
	// UseAsymSpread enables AsymSpread (so the zero value of RunConfig
	// keeps the paper's model).
	UseAsymSpread bool
	// MulticastFraction, when in (0,1], limits the fraction of routers
	// that run the multicast protocol (the A2 unicast-clouds
	// extension); 0 means all routers are capable, as in the paper's
	// experiments. Only meaningful for HBH and REUNITE.
	MulticastFraction float64
	// Check enables the runtime invariant checker for this run (see
	// CheckInvariants for the sweep-wide switch).
	Check bool
	// TimerSkew, when > 0, scales each receiver's JoinInterval by a
	// deterministic per-receiver factor in [1-TimerSkew, 1+TimerSkew]
	// (see skewedInterval), modelling the unsynchronized refresh clocks of
	// a live deployment. No RNG draws are consumed whether on or off,
	// so enabling the knob never perturbs the other seeded draws. The
	// scaled interval must stay below T1 for the config to validate;
	// the genome bounds the skew at 30%, far under that ceiling.
	TimerSkew float64
	// Obs, when non-nil, attaches the observability pipeline to the
	// run's network: trace sinks, counters and the flight recorder all
	// hang off it. When it carries a recorder and the run is checked,
	// invariant violations are reported with the offending node's
	// flight-recorder dump. nil (the default, and the only value the
	// figure sweeps use) keeps the hot path allocation-free and the
	// committed results bit-identical.
	Obs *obs.Observer
	// Scenario, when non-nil, supplies the prebuilt cost-randomized
	// graph and routing tables for this run (see PrepareScenario). All
	// protocols simulated at one (size, run) grid point share the same
	// seed-derived costs, so the sweeps build the graph and run the
	// all-pairs Dijkstra once per scenario instead of once per
	// protocol. nil makes Run prepare its own. The scenario must have
	// been prepared from a RunConfig with identical Topo, Seed and cost
	// fields.
	Scenario *Scenario
}

// costs draws cfg's cost model on g from rng: every directed link cost
// uniform in the paper's [1,10], or with UseAsymSpread symmetric base
// costs skewed per direction by up to AsymSpread. With skip it consumes
// the same draws and writes nothing.
func (cfg RunConfig) costs(g *topology.Graph, rng *rand.Rand, skip bool) {
	const lo, hi = 1, 10
	switch {
	case cfg.UseAsymSpread && skip:
		g.SkipPerturbCosts(rng, lo, hi, cfg.AsymSpread)
	case cfg.UseAsymSpread:
		g.PerturbCosts(rng, lo, hi, cfg.AsymSpread)
	case skip:
		g.SkipRandomizeCosts(rng, lo, hi)
	default:
		g.RandomizeCosts(rng, lo, hi)
	}
}

// Scenario is the seed-derived simulation substrate shared by every
// protocol at one sweep grid point: the cost-randomized topology and
// the unicast routing tables computed over it. Protocol runs treat
// both as read-only.
type Scenario struct {
	Graph   *topology.Graph
	Routing unicast.Router
}

// PrepareScenario builds the scenario a RunConfig describes: clone the
// base topology, randomize costs from the seed, compute routing. The
// protocol-specific fields of cfg are ignored.
func PrepareScenario(cfg RunConfig) *Scenario {
	return newScenario(cfg.Topo, rand.New(rand.NewSource(cfg.Seed)),
		func(g *topology.Graph, rng *rand.Rand) { cfg.costs(g, rng, false) })
}

// costModel draws a scenario's link costs, and any other link attribute
// an experiment varies, from the scenario's rng.
type costModel func(g *topology.Graph, rng *rand.Rand)

// paperCosts is the §4 cost model: every directed link cost uniform in
// [1,10].
func paperCosts(g *topology.Graph, rng *rand.Rand) { g.RandomizeCosts(rng, 1, 10) }

// newScenario clones topo's base graph, draws its costs from rng and
// routes it.
func newScenario(topo Topo, rng *rand.Rand, costs costModel) *Scenario {
	g := BaseGraph(topo).Clone()
	costs(g, rng)
	return &Scenario{Graph: g, Routing: unicast.New(g)}
}

// point is one run of the §4 method: a scenario, the source on router
// 0's host, the receivers sampled for it, and the rng that drew them,
// which the run keeps drawing from (capable routers, join jitter).
type point struct {
	*Scenario
	source  topology.NodeID
	members []topology.NodeID
	rng     *rand.Rand
}

// drawPoint draws a point from seed: topo's base graph with its costs
// drawn by costs, routed, and n receivers sampled from the same stream.
func drawPoint(topo Topo, seed int64, n int, costs costModel) point {
	rng := rand.New(rand.NewSource(seed))
	return newScenario(topo, rng, costs).point(rng, n)
}

// point fixes the source, the host attached to router 0 (node 18 in the
// ISP figure), and samples n receivers among the other hosts from rng.
func (sc *Scenario) point(rng *rand.Rand, n int) point {
	src := sourceHostOf(sc.Graph)
	return point{Scenario: sc, source: src, members: sampleReceivers(sc.Graph, rng, src, n), rng: rng}
}

// sourceHostOf returns the host attached to router 0.
func sourceHostOf(g *topology.Graph) topology.NodeID {
	for _, h := range g.Hosts() {
		if g.AttachedRouter(h) == 0 {
			return h
		}
	}
	panic("experiment: topology has no host on router 0")
}

// RunResult is one run's measurement.
type RunResult struct {
	// Cost is the tree cost: packet copies over links for one data
	// packet (Figure 7 metric).
	Cost int
	// MeanDelay is the average receiver delay (Figure 8 metric).
	MeanDelay float64
	// MaxLinkCopies is the worst per-link duplication (1 = clean).
	MaxLinkCopies int
	// Missing counts receivers that did not get the probe; Duplicates
	// counts surplus deliveries. Both are 0 on a converged tree.
	Missing, Duplicates int
}

const defaultConvergeIntervals = 40

// Run executes one simulation run and probes the converged tree.
func Run(cfg RunConfig) RunResult {
	if cfg.Receivers < 1 {
		panic("experiment: need at least one receiver")
	}
	sc := cfg.Scenario
	if sc == nil {
		sc = PrepareScenario(cfg)
	}
	// The scenario already carries the costs this seed draws; consume
	// the same draws so receiver sampling and join jitter see the
	// stream a fresh draw would have left.
	rng := rand.New(rand.NewSource(cfg.Seed))
	cfg.costs(sc.Graph, rng, true)
	s := sc.point(rng, cfg.Receivers).session(cfg)
	s.settle(defaultConvergeIntervals)
	res := s.probeSettled()
	if s.checker != nil {
		s.checker.CheckConverged(s.fixedPoint(res).Seq)
		s.checker.MustClean(fmt.Sprintf("%s on %s (seed=%d receivers=%d)",
			cfg.Protocol, cfg.Topo, cfg.Seed, cfg.Receivers))
	}
	return RunResult{
		Cost:          res.Cost,
		MeanDelay:     res.MeanDelay(),
		MaxLinkCopies: res.MaxLinkCopies(),
		Missing:       len(res.Missing),
		Duplicates:    res.Duplicates,
	}
}

// sampleReceivers draws n distinct receiver hosts uniformly, excluding
// the source host.
func sampleReceivers(g *topology.Graph, rng *rand.Rand, sourceHost topology.NodeID, n int) []topology.NodeID {
	var pool []topology.NodeID
	for _, h := range g.Hosts() {
		if h != sourceHost {
			pool = append(pool, h)
		}
	}
	if n > len(pool) {
		panic(fmt.Sprintf("experiment: %d receivers requested, only %d hosts", n, len(pool)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

// capableSet selects which routers run the multicast protocol.
func capableSet(g *topology.Graph, rng *rand.Rand, fraction float64) map[topology.NodeID]bool {
	routers := g.Routers()
	capable := make(map[topology.NodeID]bool, len(routers))
	if fraction <= 0 || fraction >= 1 {
		for _, r := range routers {
			capable[r] = true
		}
		return capable
	}
	idx := rng.Perm(len(routers))
	n := int(fraction*float64(len(routers)) + 0.5)
	for _, i := range idx[:n] {
		capable[routers[i]] = true
	}
	return capable
}
