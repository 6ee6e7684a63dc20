package experiment

import (
	"math/rand"

	"hbh/internal/metrics"
	"hbh/internal/netsim"
	"hbh/internal/unicast"
)

// LossRobustness runs the A6 extension experiment: HBH under
// control-message loss. Every non-data packet (join, tree, fusion) is
// dropped with the given per-link probability; the figure reports the
// converged tree cost and the fraction of receivers that miss a probe.
//
// Soft state is the protocol's loss-repair mechanism — a dropped
// refresh is replaced by the next one an interval later, and the
// (t1, t2) timers are sized to ride out several consecutive losses.
// This experiment quantifies the safety margin.
func LossRobustness(runs int, seed int64) *Figure {
	rates := []int{0, 5, 10, 20, 30} // percent
	fig := &Figure{
		ID:     "A6",
		Title:  "Control-loss robustness: HBH on the ISP topology, 8 receivers",
		XLabel: "Control packet loss (%)",
		YLabel: "tree cost / missing receivers (%)",
		Runs:   runs,
	}
	costS := metrics.NewSeries("HBH-cost", rates)
	missS := metrics.NewSeries("HBH-missing%", rates)
	dupS := metrics.NewSeries("HBH-maxcopies", rates)
	fig.Series = []*metrics.Series{costS, missS, dupS}

	for ri, rate := range rates {
		for run := 0; run < runs; run++ {
			s := seed + int64(ri)*1_000_003 + int64(run)*7919
			rng := rand.New(rand.NewSource(s))
			g := BaseGraph(TopoISP).Clone()
			g.RandomizeCosts(rng, 1, 10)
			routing := unicast.Compute(g)
			sourceHost := sourceHostOf(g)
			members := sampleReceivers(g, rng, sourceHost, 8)

			prng := rand.New(rand.NewSource(s))
			sess := setupDyn(RunConfig{Topo: TopoISP, Protocol: HBH,
				Receivers: 8, Seed: s}, g, routing, sourceHost, members, prng)
			sess.net.SetLossModel(netsim.LossModel{Control: float64(rate) / 100, RNG: rand.New(rand.NewSource(s + 1))})
			converge(sess.sim, sess.interval, defaultConvergeIntervals)
			res := sess.Probe()

			costS.At(rate).Add(float64(res.Cost))
			missS.At(rate).Add(100 * float64(len(res.Missing)) / float64(len(members)))
			dupS.At(rate).Add(float64(res.MaxLinkCopies()))
		}
	}
	return fig
}
