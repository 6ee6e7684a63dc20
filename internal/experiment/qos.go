package experiment

import (
	"math/rand"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/metrics"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/pim"
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

	for si, size := range sizes {
		for run := 0; run < runs; run++ {
			s := seed + int64(si)*1_000_003 + int64(run)*7919
			rng := rand.New(rand.NewSource(s))
			g := BaseGraph(TopoISP).Clone()
			g.RandomizeCosts(rng, 1, 10)
			g.RandomizeBandwidths(rng, 10, 100)
			sourceHost := sourceHostOf(g)
			members := sampleReceivers(g, rng, sourceHost, size)

			widest := unicast.ComputeWidest(g)
			delay := unicast.Compute(g)

			// The attainable optimum: the widest-path bottleneck from
			// the source to each member.
			sumOpt := 0.0
			for _, m := range members {
				sumOpt += float64(widest.Bottleneck(sourceHost, m))
			}
			at("optimal", size).Add(sumOpt / float64(len(members)))

			at("HBH-widest", size).Add(
				hbhBottleneck(g, widest.Routing, sourceHost, members, s))
			at("HBH-delay", size).Add(
				hbhBottleneck(g, delay, sourceHost, members, s))
			at("PIM-SS-widest", size).Add(
				pimSSBottleneck(g, widest.Routing, sourceHost, members))
		}
	}
	return fig
}

// hbhBottleneck converges HBH over the given substrate and returns the
// mean bottleneck bandwidth of the delivered paths.
func hbhBottleneck(g *topology.Graph, routing unicast.Router,
	sourceHost topology.NodeID, members []topology.NodeID, seed int64) float64 {
	prng := rand.New(rand.NewSource(seed))
	sess := setupDyn(RunConfig{Protocol: HBH, Receivers: len(members), Seed: seed},
		g, routing, sourceHost, members, prng)
	converge(sess.sim, sess.interval, defaultConvergeIntervals)
	res := sess.ProbeSettled()
	return meanBottleneck(g, res, sourceHost, members)
}

// pimSSBottleneck installs a PIM-SS tree over the substrate and
// measures the same quantity.
func pimSSBottleneck(g *topology.Graph, routing unicast.Router,
	sourceHost topology.NodeID, members []topology.NodeID) float64 {
	sim := eventsim.New()
	net := netsim.New(sim, g, routing)
	sess := pim.Build(net, pim.SS, sourceHost, addr.GroupAddr(0), members, topology.None)
	ms := make([]mtree.Member, 0, len(members))
	for _, m := range members {
		ms = append(ms, sess.Member(m))
	}
	res := mtree.Probe(net, func() uint32 { return sess.SendData(nil) }, ms)
	return meanBottleneck(g, res, sourceHost, members)
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
