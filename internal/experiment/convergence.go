package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"hbh/internal/eventsim"
	"hbh/internal/faults"
	"hbh/internal/metrics"
	"hbh/internal/obs"
	"hbh/internal/topology"
)

// ConvergenceConfig parameterises the A11 convergence profile: how long
// each protocol takes to reach a quiescent tree after the receivers
// join (and, for the soft-state protocols, after a tree-branch link
// cut), and what the cascade costs in control messages, link crossings
// and wire bytes. Convergence is measured, not assumed: the detector
// declares a channel quiescent once no control message is in flight and
// no table has mutated for convergeSettleIntervals refresh intervals.
type ConvergenceConfig struct {
	Receivers int
	Runs      int
	Seed      int64
}

// convergenceCell is one row of the profile: a (topology, cost model,
// protocol) combination aggregated over the runs.
type convergenceCell struct {
	Topo Topo
	// Asym selects the paper's fully independent per-direction cost
	// draw; false keeps the two directions of every link equal.
	Asym     bool
	Protocol Protocol
	// JoinTime is the measured join-phase convergence time: the virtual
	// time of the last structural table mutation before the channel
	// first went quiescent. CtrlMsgs/CtrlHops/CtrlBytes are the
	// control-plane cost accumulated by then.
	JoinTime  *metrics.Accumulator
	CtrlMsgs  *metrics.Accumulator
	CtrlHops  *metrics.Accumulator
	CtrlBytes *metrics.Accumulator
	// ReconvTime is the fault phase: time from a tree-branch link cut
	// (chosen so the graph stays connected) to re-quiescence. Healed is
	// the fraction of runs that re-quiesced inside the hard cap. The
	// centrally built PIM baseline has no repair cascade to measure, so
	// both stay empty.
	ReconvTime *metrics.Accumulator
	Healed     *metrics.Accumulator
	// Capped counts runs whose join phase exhausted the hard cap
	// (defaultConvergeIntervals) without quiescing.
	Capped int
}

// ConvergenceResult is the full A11 profile.
type ConvergenceResult struct {
	Cfg   ConvergenceConfig
	Cells []*convergenceCell
}

// convergenceProtocols are the profiled protocols: the two soft-state
// cascades plus the centrally built PIM-SM baseline.
func convergenceProtocols() []Protocol { return []Protocol{HBH, REUNITE, PIMSM} }

// ConvergenceExperiment runs the A11 convergence profile over the ISP
// and 50-node random topologies under symmetric and asymmetric costs.
func ConvergenceExperiment(cfg ConvergenceConfig) *ConvergenceResult {
	if cfg.Receivers < 1 {
		panic("experiment: convergence profile needs at least one receiver")
	}
	res := &ConvergenceResult{Cfg: cfg}
	for _, topo := range []Topo{TopoISP, TopoRandom50} {
		for _, asym := range []bool{false, true} {
			for _, proto := range convergenceProtocols() {
				res.Cells = append(res.Cells, &convergenceCell{
					Topo: topo, Asym: asym, Protocol: proto,
					JoinTime:   &metrics.Accumulator{},
					CtrlMsgs:   &metrics.Accumulator{},
					CtrlHops:   &metrics.Accumulator{},
					CtrlBytes:  &metrics.Accumulator{},
					ReconvTime: &metrics.Accumulator{},
					Healed:     &metrics.Accumulator{},
				})
			}
		}
	}
	grid(DefaultWorkers, len(res.Cells), cfg.Runs, func(ci, run, _ int) func() {
		return convergenceRun(cfg, res.Cells[ci], cfg.Seed+int64(run)*6101)
	})
	return res
}

// convergenceRun executes one profiled run and returns the fold that
// adds it to the cell. The cost model mirrors Run(): the paper's
// independent per-direction draw for the asymmetric rows, PerturbCosts
// with zero spread (equal directions) for the symmetric ones.
func convergenceRun(cfg ConvergenceConfig, cell *convergenceCell, seed int64) func() {
	costs := paperCosts
	if !cell.Asym {
		costs = func(g *topology.Graph, rng *rand.Rand) { g.PerturbCosts(rng, 1, 10, 0) }
	}
	p := drawPoint(cell.Topo, seed, cfg.Receivers, costs)
	o := obs.New(nil) // the network binds its own clock
	tr := o.EnableConvergence()
	s := p.session(RunConfig{
		Topo: cell.Topo, Protocol: cell.Protocol,
		Receivers: cfg.Receivers, Seed: seed, Obs: o,
	})
	// PIM's tree is installed centrally before the clock moves: the
	// detector confirms quiescence after the settle window, and the
	// join phase reports the install time (zero) at zero control cost —
	// the baseline the soft-state cascades are compared to.
	joinAt, used, _ := convergeMeasured(s.sim, tr, s.ch, s.interval, defaultConvergeIntervals)
	join := tr.Channel(s.ch)

	// Fault phase, soft-state cascades only: cut a link the converged
	// tree is actually using (preferring one whose loss keeps the graph
	// connected, so the cascade CAN heal around it) and measure to
	// re-quiescence.
	cascade := s.tree == nil
	var reconv float64
	var healed bool
	if cascade {
		pre := s.probeSettled()
		cut := pickCutLink(p.Graph, pre, p.source, p.members)
		tCut := s.sim.Now() + 10
		faults.NewInjector(s.net, faults.NewPlan().LinkDown(tCut, cut[0], cut[1])).Schedule()
		var reconvAt eventsim.Time
		reconvAt, _, healed = convergeMeasured(s.sim, tr, s.ch, s.interval, defaultConvergeIntervals)
		// A cut that missed every live branch (the soft state already
		// rerouted during the probe retries) mutates nothing; report
		// zero repair time rather than the stale join timestamp.
		reconv = max(0, float64(reconvAt)-float64(tCut))
	}
	return func() {
		cell.JoinTime.Add(float64(joinAt))
		cell.CtrlMsgs.Add(float64(join.CtrlSends))
		cell.CtrlHops.Add(float64(join.CtrlHops))
		cell.CtrlBytes.Add(float64(join.CtrlBytes))
		if used >= defaultConvergeIntervals {
			cell.Capped++
		}
		if cascade {
			cell.Healed.Add(b2f(healed))
			if healed {
				cell.ReconvTime.Add(reconv)
			}
		}
	}
}

// FormatTable renders the convergence profile.
func (r *ConvergenceResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A11 convergence profile: %d receivers, %d runs per row, seed %d\n",
		r.Cfg.Receivers, r.Cfg.Runs, r.Cfg.Seed)
	b.WriteString("join: measured time to a quiescent tree after the receivers join, and the\n")
	b.WriteString("control cost (originations, link crossings, wire bytes) accumulated by then.\n")
	b.WriteString("reconv: time from a tree-branch link cut to re-quiescence (soft-state healing;\n")
	b.WriteString("the centrally built PIM baseline has no repair cascade, shown as -). All times\n")
	fmt.Fprintf(&b, "in simulation units; quiescent = no control in flight, no table mutation for %d intervals.\n\n",
		convergeSettleIntervals)
	fmt.Fprintf(&b, "%-9s %-5s %-9s %10s %10s %10s %11s %10s %7s %7s\n",
		"topo", "costs", "protocol", "join-time", "ctrl-msgs", "ctrl-hops", "ctrl-bytes",
		"reconv", "healed", "capped")
	mean := func(a *metrics.Accumulator) string {
		if a.N() == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", a.Mean())
	}
	for _, c := range r.Cells {
		costs := "sym"
		if c.Asym {
			costs = "asym"
		}
		fmt.Fprintf(&b, "%-9s %-5s %-9s %10s %10s %10s %11s %10s %7s %7d\n",
			c.Topo, costs, c.Protocol,
			mean(c.JoinTime), mean(c.CtrlMsgs), mean(c.CtrlHops), mean(c.CtrlBytes),
			mean(c.ReconvTime), mean(c.Healed), c.Capped)
	}
	return b.String()
}
