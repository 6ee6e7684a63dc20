package experiment

import (
	"math/rand"

	"hbh/internal/metrics"
	"hbh/internal/mtree"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// QoSRouting runs the A7 extension experiment, operationalising the
// paper's §5 future work ("include QoS parameters inside HBH's tree
// construction") and its §1 claim that HBH "is suitable for an
// eventual implementation of QoS based routing".
//
// The network gets a second per-direction link attribute, bandwidth
// (uniform in [10,100]). Two unicast substrates are compared: the
// delay-shortest tables of the paper, and widest-path (maximum
// bottleneck bandwidth) tables. HBH builds FORWARD trees on whatever
// substrate the network runs, so under widest-path routing every
// member inherits the maximum-bottleneck path from the source. PIM-SS
// builds REVERSE trees: its members get the bottleneck of the
// receiver->source direction, which asymmetric capacities make
// systematically worse.
//
// The figure reports the mean per-member bottleneck bandwidth of the
// actual delivery paths.
func QoSRouting(runs int, seed int64) *Figure {
	sizes := ISPSizes()
	fig := &Figure{
		ID:     "A7",
		Title:  "QoS routing: delivered bottleneck bandwidth (ISP topology, widest-path substrate)",
		XLabel: "Number of receivers",
		YLabel: "mean bottleneck bandwidth of delivery paths",
		Runs:   runs,
	}
	names := []string{"HBH-widest", "PIM-SS-widest", "HBH-delay", "optimal"}
	for _, n := range names {
		fig.Series = append(fig.Series, metrics.NewSeries(n, sizes))
	}
	at := func(name string, size int) *metrics.Accumulator {
		return fig.SeriesByName(name).At(size)
	}

	grid(DefaultWorkers, len(sizes), runs, func(si, run, _ int) func() {
		size := sizes[si]
		s := seed + int64(si)*1_000_003 + int64(run)*7919
		p := drawPoint(TopoISP, s, size, func(g *topology.Graph, rng *rand.Rand) {
			g.RandomizeCosts(rng, 1, 10)
			g.RandomizeBandwidths(rng, 10, 100)
		})
		widest := unicast.ComputeWidest(p.Graph)

		// The attainable optimum: the widest-path bottleneck from
		// the source to each member.
		sumOpt := 0.0
		for _, m := range p.members {
			sumOpt += float64(widest.Bottleneck(p.source, m))
		}
		optimal := sumOpt / float64(len(p.members))
		hbhWidest := bottleneck(p, widest, HBH, s)
		hbhDelay := bottleneck(p, p.Routing, HBH, s)
		pimWidest := bottleneck(p, widest, PIMSS, s)
		return func() {
			at("optimal", size).Add(optimal)
			at("HBH-widest", size).Add(hbhWidest)
			at("HBH-delay", size).Add(hbhDelay)
			at("PIM-SS-widest", size).Add(pimWidest)
		}
	})
	return fig
}

// bottleneck settles proto over the given substrate and returns the
// mean bottleneck bandwidth of the paths its probe took.
func bottleneck(p point, routing unicast.Router, proto Protocol, seed int64) float64 {
	p.Scenario = &Scenario{Graph: p.Graph, Routing: routing}
	p.rng = rand.New(rand.NewSource(seed))
	sess := p.session(RunConfig{Protocol: proto, Receivers: len(p.members), Seed: seed})
	sess.settle(defaultConvergeIntervals)
	return meanBottleneck(p.Graph, sess.probeSettled(), p.source, p.members)
}

// meanBottleneck reconstructs each member's delivery path from the
// probe and averages the narrowest link bandwidth along it.
func meanBottleneck(g *topology.Graph, res *mtree.Result,
	sourceHost topology.NodeID, members []topology.NodeID) float64 {
	var sum float64
	n := 0
	for _, m := range members {
		path := res.PathTo(g, sourceHost, m)
		if path == nil {
			continue
		}
		bottle := 1 << 30
		for _, l := range path {
			if bw := g.Bandwidth(l.From, l.To); bw < bottle {
				bottle = bw
			}
		}
		sum += float64(bottle)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
