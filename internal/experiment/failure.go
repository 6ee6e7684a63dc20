package experiment

import (
	"fmt"
	"strings"

	"hbh/internal/clock"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/faults"
	"hbh/internal/metrics"
	"hbh/internal/mtree"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// FailureConfig parameterises the A10 failure-recovery experiment: a
// converged HBH tree is hit by a scripted link cut on a tree branch and
// a router crash, and the soft-state machinery must heal it with no
// dedicated repair messages. Repair latency and delivery ratio during
// the blackouts are measured from a stream of periodic data probes.
type FailureConfig struct {
	Topo      Topo
	Receivers int
	Runs      int
	Seed      int64
	// Scenario selects which faults the script injects (hbhsim's
	// -faults flag); empty means ScenarioCombined.
	Scenario FaultScenario
}

// FaultScenario names a fault script of the A10 experiment.
type FaultScenario string

const (
	// ScenarioCombined cuts a tree-branch link, heals it, then crashes
	// and restarts a transit router — the full A10 script.
	ScenarioCombined FaultScenario = "combined"
	// ScenarioLinkCut injects only the link cut and repair.
	ScenarioLinkCut FaultScenario = "link-cut"
	// ScenarioCrash injects only the router crash and restart.
	ScenarioCrash FaultScenario = "crash"
)

// FailureResult aggregates the recovery measurements over all runs.
// All latencies are normalised to soft-state generations (T1+T2), the
// natural unit of the healing cascade: each relay-collapse or re-graft
// step costs one generation.
type FailureResult struct {
	Cfg FailureConfig
	// Gen is one soft-state generation (T1+T2) in time units.
	Gen float64
	// LinkRepair and CrashRepair are the per-run repair latencies in
	// generations (only runs that repaired inside their window count).
	LinkRepair, CrashRepair *metrics.Accumulator
	// LinkRepaired and CrashRepaired are the fractions of runs whose
	// tree verifiably repaired inside the measurement window.
	LinkRepaired, CrashRepaired *metrics.Accumulator
	// LinkBlackoutRatio is the application delivery ratio over the two
	// generations after the cut; CrashBlackoutRatio over the router's
	// down time. Both dip below 1 by construction — the point is
	// quantifying the dip.
	LinkBlackoutRatio, CrashBlackoutRatio *metrics.Accumulator
	// MaxBlackout is the per-run worst per-receiver outage, in
	// generations.
	MaxBlackout *metrics.Accumulator
	// TransportRatio is netsim's data delivery ratio over the whole
	// faulted phase (copies that terminated usefully vs dropped).
	TransportRatio *metrics.Accumulator
	// FinalComplete, FinalClean and FinalShortest are the fractions of
	// runs whose post-recovery tree serves every member exactly once,
	// carries no duplicate copies, and matches shortest-path delays
	// under the restored routing.
	FinalComplete, FinalClean, FinalShortest *metrics.Accumulator
}

// FailureExperiment runs the A10 scenario for HBH.
func FailureExperiment(cfg FailureConfig) *FailureResult {
	if cfg.Receivers < 1 {
		panic("experiment: failure recovery needs at least one receiver")
	}
	switch cfg.Scenario {
	case "", ScenarioCombined, ScenarioLinkCut, ScenarioCrash:
	default:
		panic(fmt.Sprintf("experiment: unknown fault scenario %q", cfg.Scenario))
	}
	pcfg := core.DefaultConfig()
	res := &FailureResult{
		Cfg:                cfg,
		Gen:                float64(pcfg.T1 + pcfg.T2),
		LinkRepair:         &metrics.Accumulator{},
		CrashRepair:        &metrics.Accumulator{},
		LinkRepaired:       &metrics.Accumulator{},
		CrashRepaired:      &metrics.Accumulator{},
		LinkBlackoutRatio:  &metrics.Accumulator{},
		CrashBlackoutRatio: &metrics.Accumulator{},
		MaxBlackout:        &metrics.Accumulator{},
		TransportRatio:     &metrics.Accumulator{},
		FinalComplete:      &metrics.Accumulator{},
		FinalClean:         &metrics.Accumulator{},
		FinalShortest:      &metrics.Accumulator{},
	}
	grid(DefaultWorkers, 1, cfg.Runs, func(_, run, _ int) func() {
		return failureRun(cfg, cfg.Seed+int64(run)*7919, res)
	})
	return res
}

// failureRun measures one scripted run and returns the fold that adds
// it to res.
func failureRun(cfg FailureConfig, seed int64, res *FailureResult) func() {
	// The convergence detector decides when the tree has settled.
	// Observation consumes no randomness and schedules no events, so
	// runs stay deterministic.
	o := obs.New(nil)
	tr := o.EnableConvergence()
	p := drawPoint(cfg.Topo, seed, cfg.Receivers, paperCosts)
	s := p.session(RunConfig{Topo: cfg.Topo, Protocol: HBH, Receivers: cfg.Receivers, Seed: seed, Obs: o})
	// Detector-driven settling: the fixed 40-interval budget could
	// under-wait the 50-node random topology (long fusion and expiry
	// cascades) and always over-waited the ISP one. convergeMeasured
	// steps until the channel is quiescent, keeping the old interval
	// count as the hard cap.
	convergeMeasured(s.sim, tr, s.ch, s.interval, defaultConvergeIntervals)

	// The fault targets come from the actual converged tree, not the
	// topology: the cut must hit a branch that is carrying traffic.
	pre := s.probeUntil(s.members, (*mtree.Result).Complete)
	sc := cfg.Scenario
	if sc == "" {
		sc = ScenarioCombined
	}
	doLink := sc != ScenarioCrash
	doCrash := sc != ScenarioLinkCut

	// Timeline, in soft-state generations after the converged start.
	// Skipped phases keep their slots so every scenario measures over
	// the same windows.
	gen := s.cfg.T1 + s.cfg.T2
	t0 := s.sim.Now()
	tCut := t0 + 2*gen
	tFix := tCut + 8*gen
	tCrash := tFix + 4*gen
	tUp := tCrash + 2*gen
	tEnd := tUp + 8*gen

	g := p.Graph
	plan := faults.NewPlan()
	if doLink {
		cut := pickCutLink(g, pre, p.source, p.members)
		plan.LinkDown(tCut, cut[0], cut[1]).LinkUp(tFix, cut[0], cut[1])
	}
	if doCrash {
		crash := pickCrashRouter(g, pre, p.source, p.members)
		plan.NodeDown(tCrash, crash).NodeUp(tUp, crash)
	}
	in := faults.NewInjector(s.net, plan)
	in.OnNodeDown(func(v topology.NodeID) {
		for _, r := range s.routers {
			if r.Addr() == g.Node(v).Addr {
				r.(*core.Router).Reset() // the crash takes the engine's soft state with it
			}
		}
	})
	in.Schedule()

	// Periodic data probes feed the delivery matrix; receivers log
	// every arrival, and the sequence numbers map arrivals back to
	// probe indices afterwards.
	dm := metrics.NewDeliveryMatrix(len(s.members))
	seqToProbe := make(map[uint32]int)
	ticker := clock.NewTicker(clock.Sim(s.sim), s.interval/2, func() {
		seqToProbe[s.send()] = dm.Sent(float64(s.sim.Now()))
	})
	s.sim.At(tEnd, ticker.Stop)

	statsBefore := s.net.Stats()
	if err := s.sim.Run(tEnd); err != nil {
		panic(fmt.Sprintf("experiment: failure run: %v", err))
	}
	for i, rcv := range s.rcvs {
		for _, d := range rcv.Deliveries {
			if probe, ok := seqToProbe[d.Seq]; ok {
				dm.Delivered(i, probe)
			}
		}
	}
	linkLat, linkRepaired := dm.RepairLatency(float64(tCut), float64(tFix))
	linkRatio := dm.DeliveryRatio(float64(tCut), float64(tCut+2*gen))
	crashLat, crashRepaired := dm.RepairLatency(float64(tCrash), float64(tEnd))
	crashRatio := dm.DeliveryRatio(float64(tCrash), float64(tUp))
	worst := 0.0
	for i := range s.members {
		worst = max(worst, dm.MaxBlackout(i))
	}
	transport := s.net.Stats().Delta(statsBefore).DeliveryRatio()

	// Post-recovery verification: full service, no duplication,
	// shortest-path delays under the restored routing tables.
	post := s.probeUntil(s.members, (*mtree.Result).Complete)
	if s.checker != nil {
		// The measured probe above ran inside the experiment's recovery
		// window; the converged invariants are claims about the healed
		// tree's fixed point. A run whose tree never heals even then is
		// already measured by FinalComplete; only the node-local
		// structural invariants must hold regardless.
		if v := s.fixedPoint(post); v.Complete() {
			s.checker.CheckConverged(v.Seq)
		} else {
			s.checker.CheckStructural()
		}
		s.checker.MustClean(fmt.Sprintf("failure recovery %s on %s (seed=%d receivers=%d)",
			sc, cfg.Topo, seed, cfg.Receivers))
	}
	complete, clean := post.Complete(), post.MaxLinkCopies() <= 1
	shortest := true
	for _, m := range p.members {
		want := eventsim.Time(p.Routing.Dist(p.source, m))
		if post.Delays[g.Node(m).Addr] != want {
			shortest = false
		}
	}

	return func() {
		if doLink {
			if linkRepaired {
				res.LinkRepair.Add(linkLat / res.Gen)
			}
			res.LinkRepaired.Add(b2f(linkRepaired))
			res.LinkBlackoutRatio.Add(linkRatio)
		}
		if doCrash {
			if crashRepaired {
				res.CrashRepair.Add(crashLat / res.Gen)
			}
			res.CrashRepaired.Add(b2f(crashRepaired))
			res.CrashBlackoutRatio.Add(crashRatio)
		}
		res.MaxBlackout.Add(worst / res.Gen)
		res.TransportRatio.Add(transport)
		res.FinalComplete.Add(b2f(complete))
		res.FinalClean.Add(b2f(clean))
		res.FinalShortest.Add(b2f(shortest))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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

// pickCrashRouter chooses the router to crash: the first pure-transit
// router on a member's delivery path (not the source's access router,
// not any member's access router), preferring one whose loss keeps all
// members reachable. Falls back to any transit candidate, then to any
// member access router other than the source's.
func pickCrashRouter(g *topology.Graph, pre *mtree.Result, sourceHost topology.NodeID,
	memberHosts []topology.NodeID) topology.NodeID {
	access := map[topology.NodeID]bool{g.AttachedRouter(sourceHost): true}
	for _, m := range memberHosts {
		access[g.AttachedRouter(m)] = true
	}
	var transit []topology.NodeID
	seen := make(map[topology.NodeID]bool)
	for _, m := range memberHosts {
		for _, l := range pre.PathTo(g, sourceHost, m) {
			v := l.To
			if g.Node(v).Kind != topology.Router || access[v] || seen[v] {
				continue
			}
			seen[v] = true
			transit = append(transit, v)
		}
	}
	for _, v := range transit {
		c := g.Clone()
		for _, nb := range c.Neighbors(v) {
			if c.LinkEnabled(v, nb.To) {
				c.SetLinkEnabled(v, nb.To, false)
			}
		}
		r := unicast.Compute(c)
		ok := true
		for _, m := range memberHosts {
			if !r.Reachable(sourceHost, m) {
				ok = false
				break
			}
		}
		if ok {
			return v
		}
	}
	if len(transit) > 0 {
		return transit[0]
	}
	// Degenerate tree (every on-path router hosts someone): crash a
	// member's access router; its member blacks out until the restart.
	for _, m := range memberHosts {
		if r := g.AttachedRouter(m); r != g.AttachedRouter(sourceHost) {
			return r
		}
	}
	panic("experiment: no crashable router")
}

// FormatTable renders the failure-recovery summary.
func (r *FailureResult) FormatTable() string {
	var b strings.Builder
	sc := r.Cfg.Scenario
	if sc == "" {
		sc = ScenarioCombined
	}
	fmt.Fprintf(&b, "A10 failure recovery (HBH, %s): %s topology, %d receivers, %d runs, seed %d\n",
		sc, r.Cfg.Topo, r.Cfg.Receivers, r.Cfg.Runs, r.Cfg.Seed)
	fmt.Fprintf(&b, "latencies in soft-state generations (T1+T2 = %.0f time units)\n\n", r.Gen)
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %8s\n", "metric", "mean", "min", "max", "n")
	row := func(name string, a *metrics.Accumulator) {
		if a.N() == 0 {
			fmt.Fprintf(&b, "%-28s %10s %10s %10s %8d\n", name, "-", "-", "-", 0)
			return
		}
		fmt.Fprintf(&b, "%-28s %10.3f %10.3f %10.3f %8d\n", name, a.Mean(), a.Min(), a.Max(), a.N())
	}
	row("link-cut repair (gens)", r.LinkRepair)
	row("link-cut repaired frac", r.LinkRepaired)
	row("crash repair (gens)", r.CrashRepair)
	row("crash repaired frac", r.CrashRepaired)
	row("blackout ratio (link cut)", r.LinkBlackoutRatio)
	row("blackout ratio (crash)", r.CrashBlackoutRatio)
	row("worst receiver outage (gens)", r.MaxBlackout)
	row("transport delivery ratio", r.TransportRatio)
	row("final tree complete frac", r.FinalComplete)
	row("final tree clean frac", r.FinalClean)
	row("final shortest-path frac", r.FinalShortest)
	return b.String()
}
