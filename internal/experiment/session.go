package experiment

import (
	"fmt"
	"math/rand"

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

// session is one protocol's channel on its own virtual clock and
// packet network: a dynamic protocol's engines and member agents, or
// PIM's centrally installed tree. Every experiment settles, probes and
// checks either kind through the same methods.
type session struct {
	sim *eventsim.Sim
	net *netsim.Network
	ch  addr.Channel
	// interval is the refresh interval, the unit runs settle and probe
	// in; PIM has no refresh cycle and borrows the dynamic protocols'
	// interval and timers (cfg), which keeps every experiment's windows
	// comparable.
	interval eventsim.Time
	members  []mtree.Member // probe views, one per member host
	// checker, when non-nil, validates the protocol's invariant profile
	// continuously and at converged checkpoints (see check.go).
	checker *invariant.Checker

	// tree is PIM's installed tree; nil for a dynamic protocol.
	tree *pim.Session
	// A dynamic protocol's engines, its member agents (parallel to
	// members) and changes, the forwarding-state mutations (entries
	// added/removed/marked, branching transitions) across its routers
	// and source — the Figure 4 stability metric.
	dynEngines
	rcvs    []*softstate.Receiver
	changes int
}

// startSession brings up cfg.Protocol's channel <source, group> for
// hosts on a fresh network over g and routing, observed by cfg.Obs. PIM
// installs its tree at once. A dynamic protocol attaches its engines on
// the routers rng picks as capable (all of them unless
// cfg.MulticastFraction says otherwise) and a member agent on every
// host, none of which joins until join is called.
func startSession(cfg RunConfig, g *topology.Graph, routing unicast.Router,
	source topology.NodeID, group addr.Addr, hosts []topology.NodeID, rng *rand.Rand) *session {
	sim := eventsim.New()
	net := netsim.New(sim, g, routing)
	if cfg.Obs != nil {
		net.SetObserver(cfg.Obs)
	}
	s := &session{sim: sim, net: net, members: make([]mtree.Member, 0, len(hosts))}
	switch cfg.Protocol {
	case PIMSM, PIMSS:
		mode := pim.SS
		if cfg.Protocol == PIMSM {
			mode = pim.SM
		}
		s.tree = pim.Build(net, mode, source, group, hosts, topology.None)
		s.cfg = core.DefaultConfig().Config
		s.ch, s.interval = s.tree.Channel(), s.cfg.TreeInterval
		for _, h := range hosts {
			s.members = append(s.members, s.tree.Member(h))
		}
		return s
	}
	capable := capableSet(g, rng, cfg.MulticastFraction)
	var on []netsim.ProtoNode
	for _, r := range g.Routers() {
		if capable[r] {
			on = append(on, net.Node(r))
		}
	}
	s.dynEngines = attachDyn(cfg.Protocol, on, net.Node(source), group)
	s.ch, s.interval = s.src.Channel(), s.cfg.TreeInterval
	chg := func(addr.Addr, addr.Channel, softstate.ChangeKind, addr.Addr) {
		s.changes++
		if s.checker != nil {
			s.checker.MarkDirty()
		}
	}
	for _, r := range s.routers {
		r.SetObserver(chg)
	}
	s.src.SetObserver(chg)
	s.rcvs = make([]*softstate.Receiver, 0, len(hosts))
	for i, h := range hosts {
		rcfg := s.cfg
		rcfg.JoinInterval = skewedInterval(s.cfg.JoinInterval, cfg.TimerSkew, i)
		rcv := s.receiver(net.Node(h), rcfg)
		s.rcvs = append(s.rcvs, rcv)
		s.members = append(s.members, rcv)
	}
	return s
}

// session brings up cfg.Protocol's channel at the point: the checker
// cfg asks for, the footprint sampler its observer asks for, and every
// receiver joining at a time drawn from the point's rng.
func (p point) session(cfg RunConfig) *session {
	if checkingEnabled(cfg) && cfg.Obs == nil {
		// The checker enables the observer's convergence tracker, which
		// fixedPoint reads.
		cfg.Obs = obs.New(nil)
	}
	s := startSession(cfg, p.Graph, p.Routing, p.source, addr.GroupAddr(0), p.members, p.rng)
	if checkingEnabled(cfg) {
		s.checker = invariant.New(s.net, s.ch, profileFor(cfg.Protocol), s.audit)
		s.checker.SetMembers(memberAddrs(p.Graph, p.members))
		invariant.InstallContinuous(s.sim, s.checker)
		s.checker.SetObserver(cfg.Obs)
	}
	installFootprintSampler(cfg, s)
	s.join(p.rng, len(s.rcvs))
	return s
}

// join schedules the first n member agents' joins at times drawn from
// rng across one join interval.
func (s *session) join(rng *rand.Rand, n int) {
	for _, rcv := range s.rcvs[:n] {
		s.sim.At(eventsim.Time(rng.Float64())*s.cfg.JoinInterval, rcv.Join)
	}
}

// send originates one data packet on the channel and returns its
// sequence number.
func (s *session) send() uint32 {
	if s.tree != nil {
		return s.tree.SendData(nil)
	}
	return s.src.SendData(nil)
}

// settle lets the soft state run for the given number of refresh
// intervals (defaultConvergeIntervals when zero). PIM installs its tree
// before the clock starts and never changes it: nothing to wait for.
func (s *session) settle(intervals int) {
	if s.tree != nil {
		return
	}
	if intervals <= 0 {
		intervals = defaultConvergeIntervals
	}
	s.run(eventsim.Time(intervals) * s.interval)
}

// run advances the session's clock by d.
func (s *session) run(d eventsim.Time) {
	if err := s.sim.Run(s.sim.Now() + d); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
}

// convergeCap is the hard cap, in refresh intervals, on
// convergeMeasured. The longest converged join on the 200-run A11 grid
// takes 77, its quiet window included; a run still mutating at 200
// does not converge.
const convergeCap = 200

// convergeMeasured steps the session one refresh interval at a time
// until its channel has gone one soft-state generation (T1+T2) with no
// structural mutation, or convergeCap intervals run out. A generation
// is the window because an entry that stopped being refreshed is stale
// after T1 and destroyed only T2 later: any shorter quiet spell can end
// in an expiry. The window counts from the later of the call and the
// last mutation, so a cascade the caller has just set off (a fault a
// few units ahead) is always waited for. It reads the convergence
// tracker of the session's observer and returns the last mutation
// time; converged is false when the cap ran out with the tree still
// changing, and at is then merely the last mutation seen.
func (s *session) convergeMeasured() (at eventsim.Time, converged bool) {
	tr := s.net.Observer().Convergence()
	window := s.cfg.Generation()
	start := s.sim.Now()
	for used := 0; used < convergeCap && !converged; used++ {
		s.run(s.interval)
		now := s.sim.Now()
		converged = now-start >= window && tr.Quiescent(s.ch, now, window)
	}
	return tr.Channel(s.ch).LastMutation, converged
}

// probe injects one data packet and measures the tree that carries it
// to every member.
func (s *session) probe() *mtree.Result { return mtree.Probe(s.net, s.send, s.members) }

// probeUntil probes members and, while one is missing (the probe
// landed in a transient soft-state window — REUNITE in particular keeps
// reconfiguring under asymmetric routing), lets the protocol settle
// eight more refresh intervals and retries, up to three times. The last
// probe is reported either way, so sustained starvation still shows.
func (s *session) probeUntil(members []mtree.Member) *mtree.Result {
	res := mtree.Probe(s.net, s.send, members)
	for attempt := 0; attempt < 3 && len(res.Missing) > 0; attempt++ {
		s.settle(8)
		res = mtree.Probe(s.net, s.send, members)
	}
	return res
}

// probeSettled probes every member until each is served (probeUntil).
func (s *session) probeSettled() *mtree.Result { return s.probeUntil(s.members) }

// fixedPoint returns a probe of the tree the protocol settles on, which
// the converged invariants are claims about. measured was taken at the
// paper's fixed settling time so results stay comparable, but on some
// seeds the relay-collapse cascade is still in flight there — a
// soft-state transient, not a violation. So a dynamic protocol first
// runs to convergence (convergeMeasured; one that never stops mutating
// is checked mid-flight at the cap and fails, as it should) and is
// probed again. PIM's installed tree is its fixed point from the start.
func (s *session) fixedPoint(measured *mtree.Result) *mtree.Result {
	if s.tree != nil {
		return measured
	}
	s.convergeMeasured()
	return s.probe()
}

// MembersWithout returns the member views excluding index i.
func (s *session) MembersWithout(i int) []mtree.Member {
	out := make([]mtree.Member, 0, len(s.members)-1)
	for j, m := range s.members {
		if j != i {
			out = append(out, m)
		}
	}
	return out
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

// state reports the channel's forwarding-state footprint across the
// source and all routers. Every on-tree PIM router holds one classical
// (S,G) entry.
func (s *session) state() stateFootprint {
	if s.tree != nil {
		n := s.tree.StateRouters()
		return stateFootprint{MFTRouters: n, MFTEntries: n}
	}
	fp := stateFootprint{MFTEntries: s.src.MFT().Len()}
	for _, r := range s.routers {
		mct, mft, _ := r.State(s.ch)
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

// dynEngines are one dynamic protocol's agents on a network, seen
// through the types the two protocols share: what a session needs once
// the engines are attached, whichever protocol's rules they run.
type dynEngines struct {
	cfg softstate.Config
	src *softstate.Source
	// routers follow the order they were attached in (startSession: the
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

// installFootprintSampler samples a dynamic protocol's forwarding-state
// footprint into the observer's counter registry once per refresh
// interval, producing the virtual-time convergence curves the metrics
// export exposes (hbh_state_* series). No-op unless cfg.Obs carries a
// counter registry; PIM's installed tree has no curve to draw.
func installFootprintSampler(cfg RunConfig, s *session) {
	if cfg.Obs == nil || cfg.Obs.Counters() == nil || s.tree != nil {
		return
	}
	c := cfg.Obs.Counters()
	protocol := string(cfg.Protocol)
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
