package experiment

import (
	"math/rand"

	"hbh/internal/metrics"
	"hbh/internal/netsim"
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

	grid(DefaultWorkers, len(rates), runs, func(ri, run, _ int) func() {
		rate := rates[ri]
		s := seed + int64(ri)*1_000_003 + int64(run)*7919
		p := drawPoint(TopoISP, s, 8, paperCosts)
		p.rng = rand.New(rand.NewSource(s))
		sess := p.session(RunConfig{Topo: TopoISP, Protocol: HBH, Receivers: 8, Seed: s})
		sess.net.SetAdversary(netsim.Adversary{Loss: float64(rate) / 100, RNG: rand.New(rand.NewSource(s + 1))})
		sess.settle(defaultConvergeIntervals)
		res := sess.probe()
		cost, copies := float64(res.Cost), float64(res.MaxLinkCopies())
		missing := 100 * float64(len(res.Missing)) / float64(len(p.members))
		return func() {
			costS.At(rate).Add(cost)
			missS.At(rate).Add(missing)
			dupS.At(rate).Add(copies)
		}
	})
	return fig
}
