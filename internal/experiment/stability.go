package experiment

import (
	"fmt"
	"strings"

	"hbh/internal/eventsim"
	"hbh/internal/metrics"
	"hbh/internal/mtree"
)

// StabilityConfig parameterises the §3/Figure 4 departure experiment:
// converge a group, make one member leave, and measure how much the
// remaining members' service is perturbed.
type StabilityConfig struct {
	Topo      Topo
	Receivers int
	Runs      int
	Seed      int64
}

// StabilityRow aggregates one protocol's stability measurements.
type StabilityRow struct {
	Protocol Protocol
	// RouteChanged counts remaining members whose delivery delay
	// changed after the departure (per run). The paper's claim: HBH
	// keeps remaining members' routes intact ("This is avoided in
	// HBH"); REUNITE's reconfiguration can re-route them (Figure 2).
	RouteChanged *metrics.Accumulator
	// StateChanges counts forwarding-state mutations (table entries
	// added/removed/marked, branching transitions) triggered by the
	// departure — the quantity Figure 4 depicts.
	StateChanges *metrics.Accumulator
	// DelayBefore and DelayAfter are the mean receiver delays around
	// the departure.
	DelayBefore, DelayAfter *metrics.Accumulator
	// Disrupted counts remaining members that missed the post-departure
	// probe entirely (delivery loss, should be 0).
	Disrupted *metrics.Accumulator
}

// StabilityResult is the full comparison.
type StabilityResult struct {
	Cfg  StabilityConfig
	Rows []*StabilityRow
}

// StabilityExperiment runs the departure comparison for HBH and
// REUNITE.
func StabilityExperiment(cfg StabilityConfig) *StabilityResult {
	if cfg.Receivers < 2 {
		panic("experiment: stability needs at least 2 receivers")
	}
	res := &StabilityResult{Cfg: cfg}
	for _, p := range []Protocol{REUNITE, HBH} {
		res.Rows = append(res.Rows, &StabilityRow{
			Protocol:     p,
			RouteChanged: &metrics.Accumulator{},
			StateChanges: &metrics.Accumulator{},
			DelayBefore:  &metrics.Accumulator{},
			DelayAfter:   &metrics.Accumulator{},
			Disrupted:    &metrics.Accumulator{},
		})
	}
	grid(DefaultWorkers, len(res.Rows), cfg.Runs, func(pi, run, _ int) func() {
		return stabilityRun(cfg, res.Rows[pi], cfg.Seed+int64(run)*7919)
	})
	return res
}

// stabilityRun measures one departure and returns the fold that adds it
// to row.
func stabilityRun(cfg StabilityConfig, row *StabilityRow, seed int64) func() {
	p := drawPoint(cfg.Topo, seed, cfg.Receivers, paperCosts)
	s := p.session(RunConfig{Topo: cfg.Topo, Protocol: row.Protocol, Receivers: cfg.Receivers, Seed: seed})
	s.settle(defaultConvergeIntervals)

	before := s.probe()
	leaver := p.rng.Intn(len(s.members))
	remaining := s.MembersWithout(leaver)

	changesBefore := s.changes
	s.rcvs[leaver].Leave()
	if err := s.sim.Run(s.sim.Now() + s.departureWindow()); err != nil {
		panic(fmt.Sprintf("experiment: stability settle: %v", err))
	}
	stateChanges := s.changes - changesBefore
	after := mtree.Probe(s.net, s.send, remaining)

	changed, disrupted := 0, 0
	var sumBefore, sumAfter float64
	counted := 0
	for _, m := range remaining {
		db, okB := before.Delays[m.Addr()]
		da, okA := after.Delays[m.Addr()]
		if !okA {
			disrupted++
			continue
		}
		if !okB {
			// Not served before the departure either (probe landed in
			// a transient window): no basis for a route comparison.
			continue
		}
		if db != da {
			changed++
		}
		sumBefore += float64(db)
		sumAfter += float64(da)
		counted++
	}
	return func() {
		row.StateChanges.Add(float64(stateChanges))
		if counted > 0 {
			row.DelayBefore.Add(sumBefore / float64(counted))
			row.DelayAfter.Add(sumAfter / float64(counted))
		}
		row.RouteChanged.Add(float64(changed))
		row.Disrupted.Add(float64(disrupted))
	}
}

// departureWindow is how long a departure takes to dissolve: three
// soft-state generations.
func (s *session) departureWindow() eventsim.Time { return 3 * s.cfg.Generation() }

// FormatTable renders the stability comparison.
func (r *StabilityResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Departure stability (Fig. 4 scenario): %s topology, %d receivers, %d runs\n",
		r.Cfg.Topo, r.Cfg.Receivers, r.Cfg.Runs)
	fmt.Fprintf(&b, "%-10s %16s %15s %14s %14s %12s\n",
		"protocol", "route changes", "state changes", "delay before", "delay after", "disrupted")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %16.3f %15.2f %14.2f %14.2f %12.3f\n",
			row.Protocol, row.RouteChanged.Mean(), row.StateChanges.Mean(),
			row.DelayBefore.Mean(), row.DelayAfter.Mean(), row.Disrupted.Mean())
	}
	return b.String()
}
