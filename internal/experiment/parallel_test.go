package experiment

import (
	"strings"
	"testing"
)

// TestParallelSweepIdentical: every grid experiment folds its runs in
// one fixed order, so its table and CSV are byte-identical at 1 and 4
// workers.
func TestParallelSweepIdentical(t *testing.T) {
	figures := func(fs ...*Figure) string {
		var b strings.Builder
		for _, f := range fs {
			b.WriteString(f.FormatTable() + f.FormatCSV())
		}
		return b.String()
	}
	for _, c := range []struct {
		name string
		run  func() string
	}{
		{"paper", func() string { return figures(PaperFigures(TopoISP, 2, 11)) }},
		{"stability", func() string {
			return StabilityExperiment(StabilityConfig{Topo: TopoISP, Receivers: 4, Runs: 3, Seed: 11}).FormatTable()
		}},
		{"ablation-fusion", func() string { return figures(AblationFusion(2, 11)) }},
		{"unicast-clouds", func() string { return figures(UnicastClouds(2, 11)) }},
		{"asymmetry-sweep", func() string { return figures(AsymmetrySweep(2, 11)) }},
		{"forwarding-state", func() string { return figures(ForwardingState(1, 11)) }},
		{"control-overhead", func() string { return figures(ControlOverhead(1, 11)) }},
		{"qos", func() string { return figures(QoSRouting(2, 11)) }},
		{"cross-topo", func() string { return figures(CrossTopology(2, 11)) }},
		{"delay-tail", func() string { return DelayTail(3, 11).FormatTable() }},
		{"convergence", func() string {
			return ConvergenceExperiment(ConvergenceConfig{Receivers: 3, Runs: 1, Seed: 11}).FormatTable()
		}},
		{"robustness", func() string {
			return RobustnessExperiment(RobustnessConfig{Receivers: 3, Runs: 1, Seed: 11}).FormatTable()
		}},
		{"manychannel", func() string {
			return ManyChannelExperiment(ManyChannelConfig{Tiers: []int{6}, Routers: 24, HostsPerRouter: 3, Seed: 11}).FormatTable()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func(old int) { DefaultWorkers = old }(DefaultWorkers)
			DefaultWorkers = 1
			serial := c.run()
			DefaultWorkers = 4
			if parallel := c.run(); parallel != serial {
				t.Errorf("4 workers differ from 1:\n--- 1 ---\n%s\n--- 4 ---\n%s", serial, parallel)
			}
		})
	}
}
