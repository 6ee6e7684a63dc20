package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/faults"
	"hbh/internal/invariant"
	"hbh/internal/metrics"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// This file is the adversarial scenario engine shared by the A12
// robustness envelope (-figure robustness) and the scenario fuzz target
// (internal/advfuzz's FuzzScenario): one run = clean join phase,
// measured; adversity window (cost churn, correlated SRLG outages,
// control-plane adversary, membership churn) with periodic data
// probes feeding a delivery matrix; adversity off, recovery to
// quiescence, measured; final probe and converged invariant check.

// AdvSpec parameterises one adversarial run. The zero value of every
// adversity knob is "off": a spec with all knobs zero runs the clean
// join/converge/probe pipeline and nothing else.
type AdvSpec struct {
	Topo      Topo
	Protocol  Protocol // HBH, REUNITE, PIMSM or PIMSS
	Receivers int
	Seed      int64

	// ChurnPeriod > 0 runs continuous link-cost churn on that period
	// during the adversity window, with per-direction random-walk
	// steps in [-ChurnAmplitude, +ChurnAmplitude] (default 2) on every
	// core link per tick.
	ChurnPeriod    eventsim.Time
	ChurnAmplitude int

	// Control-plane adversary knobs, applied during the window (see
	// netsim.Adversary): uniform loss, burst loss, per-hop jitter and
	// duplication of control traffic.
	Loss       float64
	BurstStart float64
	BurstLen   int
	Jitter     eventsim.Time
	Duplicate  float64

	// Groups > 0 cuts that many random shared-risk groups of GroupSize
	// links (default 2) inside the window, each healing two refresh
	// intervals later.
	Groups    int
	GroupSize int

	// Leaves makes that many members leave early in the window and
	// rejoin at its midpoint (dynamic protocols only; ignored for
	// PIM).
	Leaves int

	// WindowIntervals is the adversity window length in refresh
	// intervals (default 20).
	WindowIntervals int

	// ExtraChannels attaches that many background channels of the same
	// protocol to the run's network before the clean phase: each gets
	// its own source host, group address and a handful of members, and
	// originates data once per refresh interval. Background channels
	// are never probed or measured — they exist so the measured
	// channel's cascade shares routers, the control-plane adversary
	// and (under LazyRouting) the tiny per-source LRU with concurrent
	// protocol state, the many-channel contention dimension of the
	// scenario space. Ignored for the centrally installed PIM
	// baselines, whose trees carry no protocol machinery to contend.
	ExtraChannels int

	// LazyRouting forces the on-demand per-source substrate regardless
	// of graph size, with a deliberately tiny LRU (8 sources) so the
	// run's churn and faults constantly evict and recompute rows — the
	// fuzzer's probe into the lazy-invalidation path at bounded n.
	LazyRouting bool

	// TimerSkew, when > 0, desynchronizes the receivers' soft-state
	// clocks: receiver i refreshes on a JoinInterval scaled by a
	// deterministic per-receiver factor in [1-TimerSkew, 1+TimerSkew].
	// This is the live-runtime dimension of the scenario space — under
	// wall clocks (hbhd) no two refresh timers tick in lockstep, and
	// skewed refreshes interleave with T1/T2 expiry in orders the
	// synchronized simulation never produces. Ignored for PIM (no
	// refresh cycle). See RunConfig.TimerSkew.
	TimerSkew float64

	// Check attaches the invariant checker as an oracle: structural
	// invariants continuously, the full converged profile on the final
	// probe when the run recovered. Violations are collected in the
	// result, never panicked — the fuzzer wants to read them.
	Check bool
}

// AdvResult is one adversarial run's measurement.
type AdvResult struct {
	// CleanTime is the measured clean join convergence time (last
	// mutation before first quiescence); CleanConverged is false when
	// even the clean phase exhausted the hard cap (A11 shows this
	// happens to REUNITE on some seeds with no adversity at all).
	CleanTime      eventsim.Time
	CleanConverged bool
	// Disruption is the forwarding disruption during the adversity
	// window: the fraction of (probe, receiver) deliveries that did
	// not happen, via metrics.DeliveryMatrix.
	Disruption float64
	// RecoveryTime is the elapsed time from the end of the adversity
	// window to the last structural mutation before re-quiescence (0
	// when the tree never mutated after the window). Recovered is
	// false when the recovery phase exhausted the hard cap —
	// the explicit non-converging marker the A12 classification uses.
	RecoveryTime eventsim.Time
	Recovered    bool
	// Missing and Duplicates come from the final post-recovery probe
	// (zero on a fully healed tree; only meaningful when Recovered).
	Missing, Duplicates int
	// WindowStats is the network counter delta over the adversity
	// window (adversary drops, duplications, data losses...).
	WindowStats netsim.Stats
	// Violations are the invariant breaches the oracle collected (only
	// when Check; empty means the run is certified clean).
	Violations []invariant.Violation
}

// AdversarialRun executes one adversarial scenario.
func AdversarialRun(spec AdvSpec) AdvResult {
	if spec.Receivers < 1 {
		panic("experiment: adversarial run needs at least one receiver")
	}
	if spec.WindowIntervals <= 0 {
		spec.WindowIntervals = 20
	}
	if spec.ChurnAmplitude <= 0 {
		spec.ChurnAmplitude = 2
	}
	if spec.GroupSize <= 0 {
		spec.GroupSize = 2
	}
	if spec.BurstLen <= 0 {
		spec.BurstLen = 3
	}

	p := drawPoint(spec.Topo, spec.Seed, spec.Receivers, paperCosts)
	if spec.LazyRouting {
		p.Routing = unicast.NewLazy(p.Graph, unicast.LazyOptions{MaxSources: 8})
	}
	o := obs.New(nil)
	o.EnableConvergence()

	s := p.session(RunConfig{
		Topo: spec.Topo, Protocol: spec.Protocol,
		Receivers: spec.Receivers, Seed: spec.Seed,
		Check: spec.Check, Obs: o,
		TimerSkew: spec.TimerSkew,
	})
	attachBackgroundChannels(spec, s, p.Graph)
	var res AdvResult

	// Phase 1: clean join, measured.
	res.CleanTime, res.CleanConverged = s.convergeMeasured()

	// Phase 2: adversity window. All adversity randomness comes from
	// dedicated streams derived from the spec seed, so adding a knob
	// never perturbs the draws of another.
	wStart := s.sim.Now()
	wEnd := wStart + eventsim.Time(spec.WindowIntervals)*s.interval

	var churner *faults.Churner
	if spec.ChurnPeriod > 0 {
		churner = faults.NewChurner(s.net, faults.ChurnConfig{
			Period:    spec.ChurnPeriod,
			Amplitude: spec.ChurnAmplitude,
			RNG:       rand.New(rand.NewSource(spec.Seed ^ 0x636875726e)), // "churn"
		})
		churner.Start()
	}
	adv := netsim.Adversary{
		Loss: spec.Loss, BurstStart: spec.BurstStart, BurstLen: spec.BurstLen,
		MaxJitter: spec.Jitter, Duplicate: spec.Duplicate,
	}
	advOn := adv.Loss > 0 || adv.BurstStart > 0 || adv.MaxJitter > 0 || adv.Duplicate > 0
	if advOn {
		adv.RNG = rand.New(rand.NewSource(spec.Seed ^ 0x616476)) // "adv"
		s.net.SetAdversary(adv)
	}
	if spec.Groups > 0 {
		// Each group is down for two intervals; the schedule is clamped
		// so every group heals at least one interval before the window
		// ends, keeping the recovery phase a pure soft-state question.
		spacing := 2 * s.interval
		downFor := 2 * s.interval
		n := spec.Groups
		if max := (spec.WindowIntervals - 4) / 2; n > max {
			n = max
		}
		if n > 0 {
			srlgRNG := rand.New(rand.NewSource(spec.Seed ^ 0x73726c67)) // "srlg"
			plan, _ := faults.RandomSRLGPlan(srlgRNG, p.Graph, n, spec.GroupSize,
				wStart+s.interval, spacing, downFor)
			faults.NewInjector(s.net, plan).Schedule()
		}
	}
	if spec.Leaves > 0 && s.tree == nil {
		n := spec.Leaves
		if n >= len(s.rcvs) {
			n = len(s.rcvs) - 1 // never empty the group entirely
		}
		for _, rcv := range s.rcvs[:n] {
			s.sim.At(wStart+2*s.interval, rcv.Leave)
			s.sim.At(wStart+eventsim.Time(spec.WindowIntervals/2)*s.interval, rcv.Join)
		}
	}

	// Periodic data probes feed the delivery matrix; every member logs
	// arrivals, and sequence numbers map back to probe indices after
	// the window.
	dm := metrics.NewDeliveryMatrix(len(s.members))
	seqToProbe := make(map[uint32]int)
	ticker := clock.NewTicker(clock.Sim(s.sim), s.interval/2, func() {
		seqToProbe[s.send()] = dm.Sent(float64(s.sim.Now()))
	})
	s.sim.At(wEnd, ticker.Stop)

	statsBefore := s.net.Stats()
	if err := s.sim.Run(wEnd); err != nil {
		panic(fmt.Sprintf("experiment: adversarial window: %v", err))
	}
	res.WindowStats = s.net.Stats().Delta(statsBefore)

	// Phase 3: adversity off, recovery measured. Churned costs stay
	// where the walk left them — recovery is re-optimization onto the
	// new metric landscape, not a rewind.
	if churner != nil {
		churner.Stop()
	}
	if advOn {
		s.net.SetAdversary(netsim.Adversary{})
	}
	recovAt, recovered := s.convergeMeasured()
	res.Recovered = recovered
	if recovAt > wEnd {
		res.RecoveryTime = recovAt - wEnd
	}

	// Probe deliveries are mapped only now, after the recovery phase
	// ran the clock forward: a probe in flight at the window boundary
	// still lands, and a delivery is a delivery whenever it arrives.
	// Disruption counts by send time regardless.
	for i, m := range s.members {
		for seq, probe := range seqToProbe {
			if _, ok := m.DeliveryAt(seq); ok {
				dm.Delivered(i, probe)
			}
		}
	}
	res.Disruption = 1 - dm.DeliveryRatio(float64(wStart), float64(wEnd))

	// Final probe + converged oracle, only meaningful on a recovered
	// tree (a non-converging run has no fixed point to hold the
	// converged invariants against; its structural violations, if any,
	// were already collected continuously).
	if recovered {
		final := s.probeSettled()
		res.Missing = len(final.Missing)
		res.Duplicates = final.Duplicates
		if s.checker != nil {
			s.checker.CheckConverged(final.Seq)
		}
	}
	if s.checker != nil {
		res.Violations = s.checker.Violations()
	}
	return res
}

// attachBackgroundChannels starts spec.ExtraChannels additional
// channels of the same protocol on the session's network: per channel
// one source (own host, own group address), 2-4 members joining at
// randomized offsets like the measured channel's, and a once-per-
// interval data origination. The routers the session attached
// dispatch per channel, so the background cascades run through the
// same tables, the same adversary and the same routing substrate as
// the measured one. All randomness comes from a dedicated stream
// derived from the spec seed, so turning the knob on never perturbs
// the draws of the measured channel or of any other knob.
func attachBackgroundChannels(spec AdvSpec, s *session, g *topology.Graph) {
	if spec.ExtraChannels <= 0 || s.tree != nil {
		return
	}
	bg := rand.New(rand.NewSource(spec.Seed ^ 0x626763686e)) // "bgchn"
	hosts := g.Hosts()
	for i := 0; i < spec.ExtraChannels; i++ {
		perm := bg.Perm(len(hosts))
		srcHost := hosts[perm[0]]
		members := make([]topology.NodeID, 0, 4)
		for _, j := range perm[1:] {
			members = append(members, hosts[j])
			if len(members) == 2+i%3 {
				break
			}
		}
		// The session's routers dispatch per channel; only the source
		// and the members are new.
		e := attachDyn(spec.Protocol, nil, s.net.Node(srcHost), addr.GroupAddr(1+i))
		for _, m := range members {
			rcv := e.receiver(s.net.Node(m), e.cfg)
			s.sim.At(eventsim.Time(bg.Float64())*e.cfg.JoinInterval, rcv.Join)
		}
		clock.NewTicker(clock.Sim(s.sim), s.interval, func() { e.src.SendData(nil) })
	}
}

// RobustnessConfig parameterises the A12 robustness envelope: the
// churn-rate x control-loss grid, per protocol, that locates where
// each protocol stops converging.
type RobustnessConfig struct {
	Receivers int
	Runs      int
	Seed      int64
}

// robustnessChurn lists the churn levels as ticks per refresh
// interval (0 = no churn; 2 = the costs walk twice per refresh).
var robustnessChurn = []float64{0, 0.5, 2}

// robustnessLoss lists the control-loss levels (uniform, adversary).
var robustnessLoss = []float64{0, 0.10, 0.30}

// robustnessClassFactor is the "degraded" threshold k: a run that
// recovered but took more than k x its own clean convergence time is
// degraded, not converged.
const robustnessClassFactor = 3

// robustnessCell is one grid cell aggregated over the runs.
type robustnessCell struct {
	Protocol Protocol
	Churn    float64 // ticks per interval
	Loss     float64
	// Converged/Degraded/NonConverging count run classifications.
	Converged, Degraded, NonConverging int
	Disruption                         *metrics.Accumulator
	Recovery                           *metrics.Accumulator // converged+degraded runs only
}

// class letters the envelope table prints per cell: the worst class
// that covers at least half the runs.
func (c *robustnessCell) class() string {
	runs := c.Converged + c.Degraded + c.NonConverging
	if runs == 0 {
		return "?"
	}
	if c.NonConverging*2 >= runs {
		return "N"
	}
	if (c.Degraded+c.NonConverging)*2 >= runs {
		return "D"
	}
	return "C"
}

// RobustnessResult is the full A12 envelope.
type RobustnessResult struct {
	Cfg   RobustnessConfig
	Cells []*robustnessCell
}

// robustnessProtocols are the compared protocols: both soft-state
// cascades and the centrally installed PIM-SM baseline (whose tree
// never hears the control-plane adversary — the hard-state contrast).
func robustnessProtocols() []Protocol { return []Protocol{HBH, REUNITE, PIMSM} }

// RobustnessExperiment sweeps the A12 envelope on the ISP topology.
func RobustnessExperiment(cfg RobustnessConfig) *RobustnessResult {
	if cfg.Receivers < 1 {
		panic("experiment: robustness envelope needs at least one receiver")
	}
	res := &RobustnessResult{Cfg: cfg}
	for _, proto := range robustnessProtocols() {
		for _, churn := range robustnessChurn {
			for _, loss := range robustnessLoss {
				res.Cells = append(res.Cells, &robustnessCell{
					Protocol: proto, Churn: churn, Loss: loss,
					Disruption: &metrics.Accumulator{},
					Recovery:   &metrics.Accumulator{},
				})
			}
		}
	}
	grid(DefaultWorkers, len(res.Cells), cfg.Runs, func(ci, run, _ int) func() {
		cell := res.Cells[ci]
		r := AdversarialRun(robustnessSpec(cfg, cell, cfg.Seed+int64(run)*7919))
		return func() { cell.add(r) }
	})
	return res
}

// robustnessSpec is the adversarial run of one cell.
func robustnessSpec(cfg RobustnessConfig, cell *robustnessCell, seed int64) AdvSpec {
	spec := AdvSpec{
		Topo: TopoISP, Protocol: cell.Protocol,
		Receivers: cfg.Receivers, Seed: seed,
		Loss:            cell.Loss,
		WindowIntervals: 20,
	}
	if cell.Churn > 0 {
		spec.ChurnPeriod = eventsim.Time(float64(core.DefaultConfig().TreeInterval) / cell.Churn)
		spec.ChurnAmplitude = 2
	}
	return spec
}

// add classifies one run of the cell.
func (c *robustnessCell) add(r AdvResult) {
	c.Disruption.Add(r.Disruption)
	if !r.Recovered {
		c.NonConverging++
		return
	}
	// The degraded threshold compares against the run's own clean
	// convergence time, floored at one refresh interval so the
	// centrally installed baseline (clean time 0) is not degraded by an
	// instant recovery.
	limit := max(robustnessClassFactor*r.CleanTime, core.DefaultConfig().TreeInterval)
	if r.RecoveryTime > limit {
		c.Degraded++
	} else {
		c.Converged++
	}
	c.Recovery.Add(float64(r.RecoveryTime))
}

// FormatTable renders the robustness envelope.
func (r *RobustnessResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A12 robustness envelope: isp topology, %d receivers, %d runs per cell, seed %d\n",
		r.Cfg.Receivers, r.Cfg.Runs, r.Cfg.Seed)
	b.WriteString("each run: clean join (measured), 20-interval adversity window (link-cost churn\n")
	b.WriteString("at the given ticks per refresh interval, uniform control-plane loss at the given\n")
	b.WriteString("rate), adversity off, recovery to quiescence (measured). classes per run:\n")
	fmt.Fprintf(&b, "conv = recovered within %dx its own clean convergence time, degr = recovered\n",
		robustnessClassFactor)
	b.WriteString("slower, nonc = never re-quiesced within the hard cap. disruption = fraction of\n")
	b.WriteString("(probe, receiver) deliveries lost during the window; recovery in time units\n")
	b.WriteString("(mean over recovered runs). cell class: worst class covering half the runs.\n\n")
	fmt.Fprintf(&b, "%-9s %6s %6s %7s %7s %7s %11s %10s %6s\n",
		"protocol", "churn", "loss", "conv", "degr", "nonc", "disruption", "recovery", "class")
	for _, c := range r.Cells {
		runs := c.Converged + c.Degraded + c.NonConverging
		frac := func(n int) string {
			if runs == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", float64(n)/float64(runs))
		}
		rec := "-"
		if c.Recovery.N() > 0 {
			rec = fmt.Sprintf("%.1f", c.Recovery.Mean())
		}
		fmt.Fprintf(&b, "%-9s %6.1f %6.2f %7s %7s %7s %11.3f %10s %6s\n",
			c.Protocol, c.Churn, c.Loss, frac(c.Converged), frac(c.Degraded),
			frac(c.NonConverging), c.Disruption.Mean(), rec, c.class())
	}
	b.WriteString("\n")
	return b.String()
}
