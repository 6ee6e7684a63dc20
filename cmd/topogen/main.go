// Command topogen generates and inspects the evaluation topologies:
// the 18-router ISP network of the paper's Figure 6, seeded random
// topologies, and the Internet-scale generators (Waxman,
// Barabási–Albert, transit-stub), with per-direction link costs and
// routing-asymmetry statistics.
//
// Usage:
//
//	topogen -topo isp -seed 7          # ISP topology, one cost draw
//	topogen -topo random -routers 50 -degree 8.6
//	topogen -topo ba -routers 10000 -quiet
//	topogen -topo isp -draws 100       # asymmetry statistics over draws
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func main() {
	var (
		topo    = flag.String("topo", "isp", "isp | random | line | nsfnet | abilene | waxman | ba | transitstub")
		routers = flag.Int("routers", 50, "router count (random/line/waxman/ba)")
		degree  = flag.Float64("degree", 8.6, "average router degree (random)")
		alpha   = flag.Float64("alpha", 0.15, "Waxman edge-density parameter")
		beta    = flag.Float64("beta", 0.2, "Waxman distance-decay parameter")
		baM     = flag.Int("m", 2, "Barabási–Albert links per arriving router")
		seed    = flag.Int64("seed", 1, "RNG seed for structure and costs")
		lo      = flag.Int("lo", 1, "minimum directed link cost")
		hi      = flag.Int("hi", 10, "maximum directed link cost")
		draws   = flag.Int("draws", 1, "number of cost draws for the asymmetry statistic")
		samples = flag.Int("asym-samples", unicast.AsymmetrySampleDefault,
			"router-pair budget for the sampled asymmetry estimator (exact below it)")
		quiet = flag.Bool("quiet", false, "suppress the link list")
		dot   = flag.Bool("dot", false, "emit Graphviz DOT instead of the text description")
	)
	flag.Parse()

	// Each check below is a precondition the generator would panic on.
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "topogen: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	m := cmp.Or(*baM, 2) // BarabasiAlbert's default for -m 0
	least := map[string]int{"random": 2, "line": 1, "waxman": 2, "ba": m + 1}[*topo]
	switch {
	case *lo < 1 || *hi < *lo:
		bad("-lo %d -hi %d: link costs need 1 <= lo <= hi", *lo, *hi)
	case *draws < 1:
		bad("-draws %d: need at least one cost draw", *draws)
	case *topo == "ba" && m < 1:
		bad("-m %d: need at least 1 link per arriving router", m)
	case *routers < least:
		bad("-routers %d: %s needs at least %d", *routers, *topo, least)
	case *topo == "random" && int(float64(*routers)**degree/2+0.5) > *routers*(*routers-1)/2:
		bad("-degree %g impossible with %d routers", *degree, *routers)
	}

	rng := rand.New(rand.NewSource(*seed))
	var g *topology.Graph
	switch *topo {
	case "isp":
		g = topology.ISP()
	case "random":
		g = topology.Random(topology.RandomConfig{
			Routers: *routers, AvgDegree: *degree, Hosts: true,
		}, rng)
	case "line":
		g = topology.Line(*routers, true)
	case "nsfnet":
		g = topology.NSFNET()
	case "abilene":
		g = topology.Abilene()
	case "waxman":
		g = topology.Waxman(topology.WaxmanConfig{
			Routers: *routers, Alpha: *alpha, Beta: *beta, Hosts: true,
		}, rng)
	case "ba":
		// No hosts at scale: every node enlarges all per-source routing
		// rows, and the asymmetry statistic only looks at routers.
		g = topology.BarabasiAlbert(topology.BAConfig{
			Routers: *routers, M: m, Hosts: *routers <= 4096,
		}, rng)
	case "transitstub":
		g = topology.TransitStub(topology.TransitStubConfig{
			Transits: 4, TransitDegree: 3, Stubs: 8, StubRouters: 5,
			StubDegree: 2.5, ExtraStubLinks: 3, Hosts: true,
		}, rng)
	default:
		bad("unknown topology %q", *topo)
	}

	g.RandomizeCosts(rng, *lo, *hi)
	if *dot {
		fmt.Print(g.DOT())
		return
	}
	if !*quiet {
		fmt.Print(g.String())
	}
	fmt.Printf("routers: %d, hosts: %d, links: %d, avg router degree: %.2f\n",
		len(g.Routers()), len(g.Hosts()), g.NumEdges(), g.AvgRouterDegree())

	// Routing-asymmetry statistic over cost draws: the fraction of
	// router pairs whose forward and reverse shortest paths differ
	// (Paxson measured 30-50% in the Internet; the paper's motivation).
	// Exact when the pair count fits -asym-samples, seeded-sampled
	// above it — the exhaustive walk is O(n²·pathlen) and unusable at
	// 10k routers. Rows fill on demand, so a sample searches only from
	// the routers it touches.
	var sum float64
	for i := range *draws {
		if i > 0 {
			g.RandomizeCosts(rng, *lo, *hi)
		}
		sum += unicast.EstimateAsymmetryFraction(unicast.NewLazy(g, unicast.LazyOptions{}), *seed+int64(i), *samples)
	}
	fmt.Printf("asymmetric router pairs: %.1f%% (mean over %d cost draws in [%d,%d])\n",
		100*sum/float64(*draws), *draws, *lo, *hi)
}
