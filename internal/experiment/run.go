// Package experiment is the evaluation harness: it reproduces every
// figure of the paper's §4 (tree cost and receiver delay for HBH,
// REUNITE, PIM-SM and PIM-SS over the ISP and 50-node random
// topologies), the §3/Figure 4 departure-stability comparison, and the
// ablation/extension studies listed in DESIGN.md.
//
// The methodology follows the paper: one multicast channel, the source
// fixed at node 18's host (router 0), a variable number of receivers
// drawn uniformly from the potential-receiver hosts, every directed
// link cost redrawn uniformly from [1,10] per run, and 500 runs
// averaged per data point.
package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/invariant"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/pim"
	"hbh/internal/reunite"
	"hbh/internal/softstate"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Protocol identifies one protocol under test.
type Protocol string

// The protocols of the paper's evaluation, plus the fusion ablation.
const (
	HBH         Protocol = "HBH"
	HBHNoFusion Protocol = "HBH-nofusion"
	REUNITE     Protocol = "REUNITE"
	PIMSM       Protocol = "PIM-SM"
	PIMSS       Protocol = "PIM-SS"
)

// AllPaperProtocols lists the four curves of Figures 7 and 8 in the
// paper's legend order.
func AllPaperProtocols() []Protocol {
	return []Protocol{PIMSM, PIMSS, REUNITE, HBH}
}

// Topo selects the evaluation topology.
type Topo string

const (
	// TopoISP is the 18-router ISP topology of Figure 6.
	TopoISP Topo = "isp"
	// TopoRandom50 is the 50-node random topology (connectivity 8.6).
	TopoRandom50 Topo = "random50"
	// TopoNSFNET is the classic 14-router NSFNET T1 backbone, an extra
	// substrate for checking that the paper's orderings are not
	// topology artefacts.
	TopoNSFNET Topo = "nsfnet"
	// TopoAbilene is the 11-router Abilene/Internet2 backbone.
	TopoAbilene Topo = "abilene"
	// TopoWaxman40 is a 40-router Waxman random graph (distance-weighted
	// edge probability), fixed structure like random50 with costs redrawn
	// per run. Bounded-n stand-in for the Internet-scale substrates the
	// A13 sweep generates on the fly.
	TopoWaxman40 Topo = "waxman40"
	// TopoBA48 is a 48-router Barabási–Albert preferential-attachment
	// graph (power-law degrees, m=2): hub-and-spoke structure at a size
	// every protocol and the fuzzer can still run exhaustively.
	TopoBA48 Topo = "ba48"
	// TopoTransitStub44 is a two-tier transit-stub hierarchy: a 4-router
	// transit core with 8 stub domains of 5 routers each (44 routers).
	TopoTransitStub44 Topo = "transitstub44"
)

// randomTopoSeed fixes the 50-node topology's structure: the paper
// evaluates one random topology with costs redrawn per run, not a new
// graph per run.
const randomTopoSeed = 424242

var (
	baseMu     sync.Mutex
	baseGraphs = map[Topo]*topology.Graph{}
)

// BaseGraph returns the shared, cost-uninitialised base topology. The
// returned graph is frozen: callers must Clone before mutating costs,
// and a missed Clone panics instead of silently corrupting every later
// run sharing the base.
func BaseGraph(t Topo) *topology.Graph {
	baseMu.Lock()
	defer baseMu.Unlock()
	if g, ok := baseGraphs[t]; ok {
		return g
	}
	var g *topology.Graph
	switch t {
	case TopoISP:
		g = topology.ISP()
	case TopoRandom50:
		g = topology.Random(topology.Paper50(), rand.New(rand.NewSource(randomTopoSeed)))
	case TopoNSFNET:
		g = topology.NSFNET()
	case TopoAbilene:
		g = topology.Abilene()
	case TopoWaxman40:
		g = topology.Waxman(topology.WaxmanConfig{Routers: 40, Alpha: 0.2, Beta: 0.25, Hosts: true},
			rand.New(rand.NewSource(randomTopoSeed)))
	case TopoBA48:
		g = topology.BarabasiAlbert(topology.BAConfig{Routers: 48, M: 2, Hosts: true},
			rand.New(rand.NewSource(randomTopoSeed)))
	case TopoTransitStub44:
		g = topology.TransitStub(topology.TransitStubConfig{
			Transits: 4, TransitDegree: 3, Stubs: 8, StubRouters: 5,
			StubDegree: 2.5, ExtraStubLinks: 3, Hosts: true,
		}, rand.New(rand.NewSource(randomTopoSeed)))
	default:
		panic(fmt.Sprintf("experiment: unknown topology %q", t))
	}
	g.Freeze()
	baseGraphs[t] = g
	return g
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// Topo selects the base topology.
	Topo Topo
	// Protocol selects the protocol under test.
	Protocol Protocol
	// Receivers is the group size (receivers drawn at random among the
	// potential-receiver hosts, excluding the source's).
	Receivers int
	// Seed drives cost assignment, receiver choice and join timing.
	Seed int64
	// CostLo/CostHi bound the uniform per-direction link costs;
	// zero values default to the paper's [1, 10].
	CostLo, CostHi int
	// AsymSpread, when >= 0, switches cost assignment to symmetric
	// base costs skewed per direction by up to AsymSpread (the A3
	// asymmetry sweep). -1 (default via zero value handling below)
	// uses the paper's fully independent per-direction draw.
	AsymSpread int
	// UseAsymSpread enables AsymSpread (so the zero value of RunConfig
	// keeps the paper's model).
	UseAsymSpread bool
	// MulticastFraction, when in (0,1], limits the fraction of routers
	// that run the multicast protocol (the A2 unicast-clouds
	// extension); 0 means all routers are capable, as in the paper's
	// experiments. Only meaningful for HBH and REUNITE.
	MulticastFraction float64
	// ConvergeIntervals overrides the soft-state settling time in
	// units of the refresh interval (default 40).
	ConvergeIntervals int
	// Check enables the runtime invariant checker for this run (see
	// CheckInvariants for the sweep-wide switch).
	Check bool
	// TimerSkew, when > 0, scales each receiver's JoinInterval by a
	// deterministic per-receiver factor in [1-TimerSkew, 1+TimerSkew]
	// (see skewFactor), modelling the unsynchronized refresh clocks of
	// a live deployment. No RNG draws are consumed whether on or off,
	// so enabling the knob never perturbs the other seeded draws. The
	// scaled interval must stay below T1 for the config to validate;
	// the genome bounds the skew at 30%, far under that ceiling.
	TimerSkew float64
	// Obs, when non-nil, attaches the observability pipeline to the
	// run's network: trace sinks, counters and the flight recorder all
	// hang off it. When it carries a recorder and the run is checked,
	// invariant violations are reported with the offending node's
	// flight-recorder dump. nil (the default, and the only value the
	// figure sweeps use) keeps the hot path allocation-free and the
	// committed results bit-identical.
	Obs *obs.Observer
	// Scenario, when non-nil, supplies the prebuilt cost-randomized
	// graph and routing tables for this run (see PrepareScenario). All
	// protocols simulated at one (size, run) grid point share the same
	// seed-derived costs, so the sweeps build the graph and run the
	// all-pairs Dijkstra once per scenario instead of once per
	// protocol. The run still consumes the rng draws cost assignment
	// would have, so its results are bit-identical to the uncached
	// path. The scenario must have been prepared from a RunConfig with
	// identical Topo, Seed and cost fields.
	Scenario *Scenario
}

// Scenario is the seed-derived simulation substrate shared by every
// protocol at one sweep grid point: the cost-randomized topology and
// the unicast routing tables computed over it. Protocol runs treat
// both as read-only.
type Scenario struct {
	Graph   *topology.Graph
	Routing unicast.Router
}

// PrepareScenario builds the scenario a RunConfig describes: clone the
// base topology, randomize costs from the seed, compute routing. The
// protocol-specific fields of cfg are ignored.
func PrepareScenario(cfg RunConfig) *Scenario {
	lo, hi := cfg.CostLo, cfg.CostHi
	if lo == 0 && hi == 0 {
		lo, hi = 1, 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := BaseGraph(cfg.Topo).Clone()
	if cfg.UseAsymSpread {
		g.PerturbCosts(rng, lo, hi, cfg.AsymSpread)
	} else {
		g.RandomizeCosts(rng, lo, hi)
	}
	return &Scenario{Graph: g, Routing: unicast.New(g)}
}

// SameScenario reports whether two run configs describe the same
// scenario (identical topology, seed and cost model), i.e. whether a
// Scenario prepared for one can be reused for the other.
func SameScenario(a, b RunConfig) bool {
	return a.Topo == b.Topo && a.Seed == b.Seed &&
		a.CostLo == b.CostLo && a.CostHi == b.CostHi &&
		a.UseAsymSpread == b.UseAsymSpread &&
		(!a.UseAsymSpread || a.AsymSpread == b.AsymSpread)
}

// RunResult is one run's measurement.
type RunResult struct {
	// Cost is the tree cost: packet copies over links for one data
	// packet (Figure 7 metric).
	Cost int
	// MeanDelay is the average receiver delay (Figure 8 metric).
	MeanDelay float64
	// MaxLinkCopies is the worst per-link duplication (1 = clean).
	MaxLinkCopies int
	// Missing counts receivers that did not get the probe; Duplicates
	// counts surplus deliveries. Both are 0 on a converged tree.
	Missing, Duplicates int
}

const defaultConvergeIntervals = 40

// Run executes one simulation run and probes the converged tree.
func Run(cfg RunConfig) RunResult {
	if cfg.Receivers < 1 {
		panic("experiment: need at least one receiver")
	}
	lo, hi := cfg.CostLo, cfg.CostHi
	if lo == 0 && hi == 0 {
		lo, hi = 1, 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var g *topology.Graph
	var routing unicast.Router
	if cfg.Scenario != nil {
		g, routing = cfg.Scenario.Graph, cfg.Scenario.Routing
		// The scenario already carries the costs this seed draws;
		// consume the identical rng draws so receiver sampling and
		// join jitter below see the same stream as the uncached path.
		if cfg.UseAsymSpread {
			g.SkipPerturbCosts(rng, lo, hi, cfg.AsymSpread)
		} else {
			g.SkipRandomizeCosts(rng, lo, hi)
		}
	} else {
		g = BaseGraph(cfg.Topo).Clone()
		if cfg.UseAsymSpread {
			g.PerturbCosts(rng, lo, hi, cfg.AsymSpread)
		} else {
			g.RandomizeCosts(rng, lo, hi)
		}
		routing = unicast.New(g)
	}

	sourceHost := sourceHostOf(g)
	members := sampleReceivers(g, rng, sourceHost, cfg.Receivers)

	switch cfg.Protocol {
	case PIMSM, PIMSS:
		return runPIM(cfg, g, routing, sourceHost, members)
	case HBH, HBHNoFusion, REUNITE:
		return runDyn(cfg, g, routing, sourceHost, members, rng)
	default:
		panic(fmt.Sprintf("experiment: unknown protocol %q", cfg.Protocol))
	}
}

// sourceHostOf fixes the source: the host attached to router 0 (node
// 18 in the ISP figure).
func sourceHostOf(g *topology.Graph) topology.NodeID {
	for _, h := range g.Hosts() {
		if g.AttachedRouter(h) == 0 {
			return h
		}
	}
	panic("experiment: topology has no host on router 0")
}

// sampleReceivers draws n distinct receiver hosts uniformly, excluding
// the source host.
func sampleReceivers(g *topology.Graph, rng *rand.Rand, sourceHost topology.NodeID, n int) []topology.NodeID {
	var pool []topology.NodeID
	for _, h := range g.Hosts() {
		if h != sourceHost {
			pool = append(pool, h)
		}
	}
	if n > len(pool) {
		panic(fmt.Sprintf("experiment: %d receivers requested, only %d hosts", n, len(pool)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

// capableSet selects which routers run the multicast protocol.
func capableSet(g *topology.Graph, rng *rand.Rand, fraction float64) map[topology.NodeID]bool {
	routers := g.Routers()
	capable := make(map[topology.NodeID]bool, len(routers))
	if fraction <= 0 || fraction >= 1 {
		for _, r := range routers {
			capable[r] = true
		}
		return capable
	}
	idx := rng.Perm(len(routers))
	n := int(fraction*float64(len(routers)) + 0.5)
	for _, i := range idx[:n] {
		capable[routers[i]] = true
	}
	return capable
}

func runPIM(cfg RunConfig, g *topology.Graph, routing unicast.Router,
	sourceHost topology.NodeID, members []topology.NodeID) RunResult {
	sim := eventsim.New()
	net := netsim.New(sim, g, routing)
	if cfg.Obs != nil {
		net.SetObserver(cfg.Obs)
	}
	mode := pim.SS
	if cfg.Protocol == PIMSM {
		mode = pim.SM
	}
	sess := pim.Build(net, mode, sourceHost, addr.GroupAddr(0), members, topology.None)
	var chk *invariant.Checker
	if checkingEnabled(cfg) {
		// No StateProvider: PIM trees are installed centrally, so only
		// the delivery-level invariants are checkable.
		chk = invariant.New(net, sess.Channel(), profileFor(cfg.Protocol), nil)
		chk.SetMembers(memberAddrs(g, members))
		chk.SetObserver(cfg.Obs)
	}
	ms := make([]mtree.Member, 0, len(members))
	for _, m := range members {
		ms = append(ms, sess.Member(m))
	}
	res := mtree.Probe(net, func() uint32 { return sess.SendData(nil) }, ms)
	if chk != nil {
		chk.CheckConverged(res.Seq)
		chk.MustClean(fmt.Sprintf("%s on %s (seed=%d receivers=%d)",
			cfg.Protocol, cfg.Topo, cfg.Seed, cfg.Receivers))
	}
	return toRunResult(res)
}

// dynSession is a live protocol session over a dynamic (join/leave)
// recursive-unicast protocol, used by both the figure sweeps and the
// departure-stability experiment.
type dynSession struct {
	dynEngines
	sim       *eventsim.Sim
	net       *netsim.Network
	members   []mtree.Member
	hosts     []topology.NodeID
	rcvs      []*softstate.Receiver // the member agents, parallel to hosts
	send      func() uint32
	interval  eventsim.Time
	settleOut eventsim.Time // time for soft state to dissolve after a leave
	// changes counts forwarding-state mutations (entries added/removed/
	// marked, branching transitions) across all routers and the source
	// — the Figure 4 stability metric.
	changes *int
	// checker, when non-nil, validates the protocol's invariant profile
	// continuously and at converged checkpoints (see check.go).
	checker *invariant.Checker
}

// stateFootprint is a snapshot of a protocol's table usage.
type stateFootprint struct {
	// MFTRouters counts routers holding a data-plane table (branching
	// nodes). The recursive-unicast pitch is that this is much smaller
	// than the tree's router count.
	MFTRouters int
	// MFTEntries is the total number of data-plane rows across all
	// routers and the source.
	MFTEntries int
	// MCTRouters counts routers holding only control-plane state.
	MCTRouters int
}

// Probe injects one data packet and measures the converged tree.
func (s *dynSession) Probe() *mtree.Result {
	return mtree.Probe(s.net, s.send, s.members)
}

// ProbeSettled probes, and if any member misses the packet (the probe
// landed in a transient soft-state window — REUNITE in particular
// keeps reconfiguring under asymmetric routing), lets the protocol run
// a few more refresh intervals and retries, up to three times. The
// final probe is reported either way, so sustained starvation still
// shows up as Missing.
func (s *dynSession) ProbeSettled() *mtree.Result {
	res := s.Probe()
	for attempt := 0; attempt < 3 && len(res.Missing) > 0; attempt++ {
		converge(s.sim, s.interval, 8)
		res = s.Probe()
	}
	return res
}

// MembersWithout returns the member views excluding index i.
func (s *dynSession) MembersWithout(i int) []mtree.Member {
	out := make([]mtree.Member, 0, len(s.members)-1)
	for j, m := range s.members {
		if j != i {
			out = append(out, m)
		}
	}
	return out
}

// dynEngines are one dynamic protocol's agents on a network, seen
// through the types the two protocols share: what a session needs once
// the engines are attached, whichever protocol's rules they run.
type dynEngines struct {
	cfg softstate.Config
	src *softstate.Source
	// routers follow the order they were attached in (setupDyn: the
	// capable ones of g.Routers()).
	routers []softstate.Router
	// audit exposes the protocol's table snapshots so callers can build
	// their own checkpoint checkers (the A13 scale run checks converged
	// state only — continuous checking at 50k routers would re-snapshot
	// every table per dirty event).
	audit invariant.StateProvider
	// receiver attaches a (not yet joined) member agent for the
	// source's channel, timed by rcfg.
	receiver func(n netsim.ProtoNode, rcfg softstate.Config) *softstate.Receiver
}

// attachDyn attaches protocol p's router engines to routers and its
// source to sourceNode. This is the one place the harness names a
// protocol package; everything downstream works on the shared types.
func attachDyn(p Protocol, routers []netsim.ProtoNode, sourceNode netsim.ProtoNode, group addr.Addr) dynEngines {
	switch p {
	case HBH, HBHNoFusion:
		pcfg := core.DefaultConfig()
		pcfg.EnableFusion = p == HBH
		rs := make([]*core.Router, len(routers))
		for i, n := range routers {
			rs[i] = core.AttachRouter(n, pcfg)
		}
		src := core.AttachSource(sourceNode, group, pcfg)
		return dynEngines{
			cfg: pcfg.Config, src: src.Source, routers: softstate.Routers(rs),
			audit: core.NewAudit(src, rs),
			receiver: func(n netsim.ProtoNode, rcfg softstate.Config) *softstate.Receiver {
				return core.AttachReceiver(n, src.Channel(), core.Config{Config: rcfg})
			},
		}
	case REUNITE:
		pcfg := reunite.DefaultConfig()
		rs := make([]*reunite.Router, len(routers))
		for i, n := range routers {
			rs[i] = reunite.AttachRouter(n, pcfg)
		}
		src := reunite.AttachSource(sourceNode, group, pcfg)
		return dynEngines{
			cfg: pcfg, src: src.Source, routers: softstate.Routers(rs),
			audit: reunite.NewAudit(src, rs),
			receiver: func(n netsim.ProtoNode, rcfg softstate.Config) *softstate.Receiver {
				return reunite.AttachReceiver(n, src.Channel(), rcfg)
			},
		}
	default:
		panic(fmt.Sprintf("experiment: %q is not a dynamic protocol", p))
	}
}

// state reports the current forwarding-state footprint across the
// source and all routers, for the A4 state-size experiment.
func (s *dynSession) state() stateFootprint { return footprint(s.src, s.routers) }

// footprint snapshots a channel's table usage across its source and
// routers.
func footprint(src *softstate.Source, routers []softstate.Router) stateFootprint {
	fp := stateFootprint{MFTEntries: src.MFT().Len()}
	for _, r := range routers {
		mct, mft, _ := r.State(src.Channel())
		if mft != nil {
			fp.MFTRouters++
			fp.MFTEntries += mft.Len()
		}
		if mct != nil {
			fp.MCTRouters++
		}
	}
	return fp
}

// setupDyn builds the session for a dynamic protocol.
func setupDyn(cfg RunConfig, g *topology.Graph, routing unicast.Router,
	sourceHost topology.NodeID, members []topology.NodeID, rng *rand.Rand) *dynSession {
	sim := eventsim.New()
	net := netsim.New(sim, g, routing)
	if cfg.Obs != nil {
		net.SetObserver(cfg.Obs)
	}
	capable := capableSet(g, rng, cfg.MulticastFraction)
	var on []netsim.ProtoNode
	for _, r := range g.Routers() {
		if capable[r] {
			on = append(on, net.Node(r))
		}
	}
	e := attachDyn(cfg.Protocol, on, net.Node(sourceHost), addr.GroupAddr(0))
	s := &dynSession{
		dynEngines: e,
		sim:        sim,
		net:        net,
		hosts:      members,
		interval:   e.cfg.TreeInterval,
		settleOut:  3 * (e.cfg.T1 + e.cfg.T2),
		send:       func() uint32 { return e.src.SendData(nil) },
		changes:    new(int),
	}
	if checkingEnabled(cfg) {
		s.checker = invariant.New(net, e.src.Channel(), profileFor(cfg.Protocol),
			s.audit)
		s.checker.SetMembers(memberAddrs(g, members))
		invariant.InstallContinuous(sim, s.checker)
		s.checker.SetObserver(cfg.Obs)
	}
	installFootprintSampler(cfg, s, string(cfg.Protocol))
	chg := func(addr.Addr, addr.Channel, softstate.ChangeKind, addr.Addr) {
		*s.changes++
		if s.checker != nil {
			s.checker.MarkDirty()
		}
	}
	for _, r := range e.routers {
		r.SetObserver(chg)
	}
	e.src.SetObserver(chg)
	for i, m := range members {
		rcfg := e.cfg
		rcfg.JoinInterval = skewedInterval(e.cfg.JoinInterval, cfg.TimerSkew, i)
		rcv := e.receiver(net.Node(m), rcfg)
		at := eventsim.Time(rng.Float64()) * e.cfg.JoinInterval
		sim.At(at, rcv.Join)
		s.members = append(s.members, rcv)
		s.rcvs = append(s.rcvs, rcv)
	}
	return s
}

func (s *dynSession) leave(i int)  { s.rcvs[i].Leave() }
func (s *dynSession) rejoin(i int) { s.rcvs[i].Join() }

// skewedInterval scales a refresh interval by receiver index i's
// deterministic skew factor: the factors cycle through -1, -1/2, 0,
// +1/2, +1, so any group of five receivers spans the whole
// [1-skew, 1+skew] band and no random draws are consumed.
func skewedInterval(base eventsim.Time, skew float64, i int) eventsim.Time {
	if skew <= 0 {
		return base
	}
	factor := float64((i%5)-2) / 2
	return base * eventsim.Time(1+skew*factor)
}

// installFootprintSampler samples the session's forwarding-state
// footprint into the observer's counter registry once per refresh
// interval, producing the virtual-time convergence curves the metrics
// export exposes (hbh_state_* series). No-op unless cfg.Obs carries a
// counter registry.
func installFootprintSampler(cfg RunConfig, s *dynSession, protocol string) {
	if cfg.Obs == nil {
		return
	}
	c := cfg.Obs.Counters()
	if c == nil {
		return
	}
	mftRouters := c.NewSeries("hbh_state_mft_routers", "protocol", protocol)
	mftEntries := c.NewSeries("hbh_state_mft_entries", "protocol", protocol)
	mctRouters := c.NewSeries("hbh_state_mct_routers", "protocol", protocol)
	clock.NewTicker(clock.Sim(s.sim), s.interval, func() {
		fp := s.state()
		now := s.sim.Now()
		mftRouters.Sample(now, float64(fp.MFTRouters))
		mftEntries.Sample(now, float64(fp.MFTEntries))
		mctRouters.Sample(now, float64(fp.MCTRouters))
	})
}

// runDyn converges a dynamic protocol's session and probes its tree.
func runDyn(cfg RunConfig, g *topology.Graph, routing unicast.Router,
	sourceHost topology.NodeID, members []topology.NodeID, rng *rand.Rand) RunResult {
	s := setupDyn(cfg, g, routing, sourceHost, members, rng)
	converge(s.sim, s.interval, cfg.ConvergeIntervals)
	res := s.ProbeSettled()
	s.checkConverged(cfg, res)
	return toRunResult(res)
}

func converge(sim *eventsim.Sim, interval eventsim.Time, intervals int) {
	if intervals <= 0 {
		intervals = defaultConvergeIntervals
	}
	if err := sim.Run(sim.Now() + eventsim.Time(intervals)*interval); err != nil {
		panic(fmt.Sprintf("experiment: converge: %v", err))
	}
}

// convergeSettleIntervals is the quiescence window convergeMeasured
// requires: no table mutation for this many refresh intervals, with no
// control message outstanding, before the channel counts as converged.
const convergeSettleIntervals = 3

// convergeMeasured is the detector-driven variant of converge: it steps
// the simulation interval by interval until tr reports the channel
// quiescent (or the maxIntervals hard cap — the old fixed budget — is
// exhausted), and returns the measured convergence time (the last table
// mutation before quiescence) plus how many intervals were consumed.
// Unlike the fixed-interval converge, it cannot under-wait a run whose
// cascade outlives the fixed budget, and it does not over-wait one that
// settles early.
//
// converged is the explicit non-converged marker: false means the hard
// cap ran out with the channel still churning, and the returned time is
// merely the last mutation seen, not a convergence time. Callers must
// branch on it rather than re-deriving the condition from used — a
// capped run whose final interval happened to look quiescent is still
// reported converged, exactly as the old call sites computed by hand.
func convergeMeasured(sim *eventsim.Sim, tr *obs.ConvergeTracker, ch addr.Channel,
	interval eventsim.Time, maxIntervals int) (at eventsim.Time, used int, converged bool) {
	if maxIntervals <= 0 {
		maxIntervals = defaultConvergeIntervals
	}
	settle := eventsim.Time(convergeSettleIntervals) * interval
	for used < maxIntervals {
		if err := sim.Run(sim.Now() + interval); err != nil {
			panic(fmt.Sprintf("experiment: convergeMeasured: %v", err))
		}
		used++
		if used >= convergeSettleIntervals && tr.Quiescent(ch, sim.Now(), settle) {
			converged = true
			break
		}
	}
	return tr.Channel(ch).LastMutation, used, converged
}

func toRunResult(res *mtree.Result) RunResult {
	return RunResult{
		Cost:          res.Cost,
		MeanDelay:     res.MeanDelay(),
		MaxLinkCopies: res.MaxLinkCopies(),
		Missing:       len(res.Missing),
		Duplicates:    res.Duplicates,
	}
}
