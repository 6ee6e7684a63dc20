package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/faults"
	"hbh/internal/metrics"
	"hbh/internal/mtree"
	"hbh/internal/obs"
	"hbh/internal/topology"
)

// ConvergenceConfig parameterises the A11 convergence profile: how long
// each protocol takes to reach a quiescent tree after the receivers
// join (and, for the soft-state protocols, after a tree-branch link
// cut), and what the cascade costs in control messages, link crossings
// and wire bytes. Convergence is measured, not assumed: a channel has
// converged once no table has mutated for one soft-state generation
// (session.convergeMeasured).
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
	// control-plane cost accumulated by then. All four cover the runs
	// that converged; a capped run has no convergence time.
	JoinTime  *metrics.Accumulator
	CtrlMsgs  *metrics.Accumulator
	CtrlHops  *metrics.Accumulator
	CtrlBytes *metrics.Accumulator
	// ReconvTime is the fault phase: time from a tree-branch link cut
	// (chosen so the graph stays connected) to re-quiescence. Healed is
	// the fraction of runs that re-quiesced inside the hard cap; with
	// the invariant checker on, each healed tree is also held to the
	// protocol's converged profile. The centrally built PIM baseline has
	// no repair cascade to measure, so both stay empty.
	ReconvTime *metrics.Accumulator
	Healed     *metrics.Accumulator
	// Capped counts runs whose join phase exhausted the hard cap
	// (convergeCap) without quiescing; Relapsed counts runs whose join
	// phase was declared converged and then mutated within
	// relapseIntervals, a convergence declared too early.
	Capped, Relapsed int
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

// relapseIntervals is how long, in refresh intervals, an A11 run
// watches a channel its join phase declared converged: a structural
// mutation inside this watch is a relapse.
const relapseIntervals = 10

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
	// join phase reports the install time (zero) at zero control cost —
	// the baseline the soft-state cascades are compared to.
	joinAt, converged := s.convergeMeasured()
	join := tr.Channel(s.ch)
	relapsed := false
	if converged {
		s.run(relapseIntervals * s.interval)
		relapsed = tr.Channel(s.ch).LastMutation > joinAt
	}

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
		reconvAt, healed = s.convergeMeasured()
		// A cut that missed every live branch (the soft state already
		// rerouted during the probe retries) mutates nothing; report
		// zero repair time rather than the stale join timestamp.
		reconv = max(0, float64(reconvAt)-float64(tCut))
		if healed && s.checker != nil {
			// A healed tree has gone a generation without mutating: it is
			// the fixed point the protocol's converged profile describes
			// (for HBH: every member served exactly once, no link
			// carrying two copies, shortest paths under the routing the
			// cut left).
			s.checker.CheckConverged(s.probe().Seq)
			s.checker.MustClean(fmt.Sprintf("%s link-cut repair on %s (seed=%d receivers=%d)",
				cell.Protocol, cell.Topo, seed, cfg.Receivers))
		}
	}
	return func() {
		if converged {
			cell.JoinTime.Add(float64(joinAt))
			cell.CtrlMsgs.Add(float64(join.CtrlSends))
			cell.CtrlHops.Add(float64(join.CtrlHops))
			cell.CtrlBytes.Add(float64(join.CtrlBytes))
		} else {
			cell.Capped++
		}
		if relapsed {
			cell.Relapsed++
		}
		if cascade {
			h := 0.0
			if healed {
				h = 1
				cell.ReconvTime.Add(reconv)
			}
			cell.Healed.Add(h)
		}
	}
}

// pickCutLink chooses the router-router link to cut: the first link on
// a member's delivery path whose removal keeps the graph connected (so
// the tree CAN reroute around it while the link is down). Falls back to
// the first tree link if every candidate partitions the graph.
func pickCutLink(g *topology.Graph, pre *mtree.Result, sourceHost topology.NodeID,
	memberHosts []topology.NodeID) [2]topology.NodeID {
	var fallback *[2]topology.NodeID
	seen := make(map[[2]topology.NodeID]bool)
	for _, m := range memberHosts {
		for _, l := range pre.PathTo(g, sourceHost, m) {
			if g.Node(l.From).Kind != topology.Router || g.Node(l.To).Kind != topology.Router {
				continue
			}
			lk := [2]topology.NodeID{l.From, l.To}
			if lk[0] > lk[1] {
				lk[0], lk[1] = lk[1], lk[0]
			}
			if seen[lk] {
				continue
			}
			seen[lk] = true
			if fallback == nil {
				f := lk
				fallback = &f
			}
			c := g.Clone()
			c.SetLinkEnabled(lk[0], lk[1], false)
			if c.Connected() {
				return lk
			}
		}
	}
	if fallback == nil {
		panic("experiment: converged tree has no router-router link to cut")
	}
	return *fallback
}

// FormatTable renders the convergence profile.
func (r *ConvergenceResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A11 convergence profile: %d receivers, %d runs per row, seed %d\n",
		r.Cfg.Receivers, r.Cfg.Runs, r.Cfg.Seed)
	b.WriteString("join: measured time to a quiescent tree after the receivers join, and the\n")
	b.WriteString("control cost (originations, link crossings, wire bytes) accumulated by then,\n")
	b.WriteString("averaged over the runs that reached one (capped runs are counted, not averaged).\n")
	b.WriteString("reconv: time from a tree-branch link cut to re-quiescence (soft-state healing;\n")
	b.WriteString("the centrally built PIM baseline has no repair cascade, shown as -). All times\n")
	fmt.Fprintf(&b, "in simulation units; quiescent = no structural table mutation for one soft-state\n"+
		"generation (T1+T2 = %.0f). capped: join runs still mutating after %d intervals;\n"+
		"relapsed: join runs declared quiescent that mutate within the next %d intervals.\n\n",
		float64(core.DefaultConfig().Generation()), convergeCap, relapseIntervals)
	fmt.Fprintf(&b, "%-9s %-5s %-9s %10s %10s %10s %11s %10s %7s %7s %8s\n",
		"topo", "costs", "protocol", "join-time", "ctrl-msgs", "ctrl-hops", "ctrl-bytes",
		"reconv", "healed", "capped", "relapsed")
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
		fmt.Fprintf(&b, "%-9s %-5s %-9s %10s %10s %10s %11s %10s %7s %7d %8d\n",
			c.Topo, costs, c.Protocol,
			mean(c.JoinTime), mean(c.CtrlMsgs), mean(c.CtrlHops), mean(c.CtrlBytes),
			mean(c.ReconvTime), mean(c.Healed), c.Capped, c.Relapsed)
	}
	return b.String()
}
