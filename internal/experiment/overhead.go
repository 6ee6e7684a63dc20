package experiment

import (
	"fmt"
	"math/rand"

	"hbh/internal/eventsim"
	"hbh/internal/metrics"
)

// ControlOverhead runs the A5 extension experiment: steady-state
// control-plane traffic of the dynamic protocols as a function of
// group size, in link transmissions per refresh interval.
//
// Soft-state protocols pay for robustness with periodic refreshes:
// every receiver emits a join per interval (relayed or intercepted
// hop-by-hop), the source multicasts a tree refresh, and HBH
// additionally re-announces branching points with fusion messages.
// This experiment quantifies that price and how it scales with the
// group — the overhead side of the comparison the paper's §3 describes
// qualitatively.
func ControlOverhead(runs int, seed int64) *Figure {
	sizes := RandomSizes()
	fig := &Figure{
		ID:     "A5",
		Title:  "Control overhead vs group size (50-node random topology)",
		XLabel: "Number of receivers",
		YLabel: "control transmissions per refresh interval",
		Runs:   runs,
	}
	protos := []Protocol{REUNITE, HBH}
	for _, p := range protos {
		fig.Series = append(fig.Series, metrics.NewSeries(string(p), sizes))
	}

	const measureIntervals = 10
	grid(DefaultWorkers, len(sizes), runs, func(si, run, _ int) func() {
		size := sizes[si]
		s := seed + int64(si)*1_000_003 + int64(run)*7919
		p := drawPoint(TopoRandom50, s, size, paperCosts)
		perInterval := make([]float64, len(protos))
		for pi, proto := range protos {
			p.rng = rand.New(rand.NewSource(s))
			sess := p.session(RunConfig{Topo: TopoRandom50, Protocol: proto, Receivers: size, Seed: s})
			sess.settle(defaultConvergeIntervals)
			sess.net.ResetStats()
			if err := sess.sim.Run(sess.sim.Now() +
				eventsim.Time(measureIntervals)*sess.interval); err != nil {
				panic(fmt.Sprintf("experiment: overhead run: %v", err))
			}
			// No data is sent during the window: every transmission
			// is control traffic.
			perInterval[pi] = float64(sess.net.Stats().Transmissions) / measureIntervals
		}
		return func() {
			for pi, v := range perInterval {
				fig.Series[pi].At(size).Add(v)
			}
		}
	})
	return fig
}
