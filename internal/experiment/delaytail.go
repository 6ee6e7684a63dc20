package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"hbh/internal/metrics"
)

// DelayTailResult holds per-protocol delay distributions for the A9
// experiment.
type DelayTailResult struct {
	Runs  int
	Names []string
	Dists map[string]*metrics.Distribution
}

// DelayTail runs the A9 extension experiment: the DISTRIBUTION of
// per-receiver delays (ISP topology, 8 receivers), not just the mean
// the paper plots. Reverse-path protocols do not merely raise the
// average — they fatten the tail, because a single badly-reversed link
// on a branch penalises every member behind it. HBH's delays are the
// unicast shortest paths, so its tail is exactly the substrate's.
func DelayTail(runs int, seed int64) *DelayTailResult {
	protos := AllPaperProtocols()
	res := &DelayTailResult{Runs: runs, Dists: make(map[string]*metrics.Distribution)}
	for _, p := range protos {
		res.Names = append(res.Names, string(p))
		res.Dists[string(p)] = metrics.NewDistribution(20000)
	}
	grid(DefaultWorkers, 1, runs, func(_, run, _ int) func() {
		s := seed + int64(run)*7919
		p := drawPoint(TopoISP, s, 8, paperCosts)
		delays := make([][]float64, len(protos))
		for i, proto := range protos {
			p.rng = rand.New(rand.NewSource(s))
			sess := p.session(RunConfig{Topo: TopoISP, Protocol: proto, Receivers: 8, Seed: s})
			sess.settle(defaultConvergeIntervals)
			for _, d := range sess.probeSettled().Delays {
				delays[i] = append(delays[i], float64(d))
			}
		}
		return func() {
			for i, ds := range delays {
				for _, d := range ds {
					res.Dists[res.Names[i]].Add(d)
				}
			}
		}
	})
	return res
}

// FormatTable renders the per-protocol delay quantiles.
func (r *DelayTailResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A9 — receiver delay distribution (ISP topology, 8 receivers, %d runs)\n", r.Runs)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s\n", "protocol", "p10", "p50", "p90", "p95", "p99")
	for _, n := range r.Names {
		d := r.Dists[n]
		fmt.Fprintf(&b, "%-10s %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			n, d.Quantile(0.10), d.Quantile(0.50), d.Quantile(0.90),
			d.Quantile(0.95), d.Quantile(0.99))
	}
	return b.String()
}
