package experiment

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/igmp"
	"hbh/internal/metrics"
	"hbh/internal/mtree"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
	"hbh/internal/workload"
)

// The A14 many-channel runtime: thousands of concurrent <S,G> channels
// with Zipf popularity and Poisson membership churn (internal/workload)
// run over ONE shared substrate — one frozen topology and one race-safe
// lazy unicast router — sharded across workers on the grid every figure
// runs on. Each channel is an independent event simulation (its own
// virtual clock and packet network), so channels never interact except
// through the shared read-only substrate; per-worker obs counters are
// merged at the shard barrier.
//
// Determinism: every per-channel quantity depends only on (Seed,
// channel index) — the workload stream, the member-to-host mapping and
// the protocol run are all derived from per-channel rngs, and the
// shared lazy router returns bit-identical answers however its cache is
// scheduled (see unicast.Lazy). Results are folded in channel order, so
// the A14 table is byte-identical at any worker count. The table
// reports only exactly-summed integer quantities; wall-clock throughput
// lives in the benchmark (BenchmarkManyChannelForward), not the table.

// mcSeedMix decorrelates per-channel session rngs from the workload
// generator's streams.
const mcSeedMix = int64(0x27d4eb2f165667c5)

// mcSubstrateSeed salts the substrate rng off cfg.Seed.
const mcSubstrateSeed = int64(0x6d63746f706f) // "mctopo"

// Converge/settle windows, in refresh intervals. Initial tree build on
// the BA substrate completes within a couple of intervals; the settle
// window after churn must cover soft-state expiry (T1+T2 = 7 periods).
const (
	mcConvergeIntervals = 6
	mcSettleIntervals   = 8
)

// ManyChannelConfig parameterises the A14 sweep.
type ManyChannelConfig struct {
	// Tiers lists the channel counts to sweep (default 100, 1000, 10000).
	Tiers []int
	// Routers sizes the Barabási–Albert substrate (default 96, M=2).
	Routers int
	// HostsPerRouter attaches this many leaf hosts per router (default 4).
	HostsPerRouter int
	// Protocols under test (default HBH, REUNITE, PIM-SM).
	Protocols []Protocol
	// ZipfS is the channel-popularity skew (default 1.0).
	ZipfS float64
	// MinReceivers/MaxReceivers bound per-channel initial populations
	// (default 2..24, scaled by popularity).
	MinReceivers, MaxReceivers int
	// ChurnRate is expected membership events per interval on the most
	// popular channel (default 1.0).
	ChurnRate float64
	// FlashCrowd gives the most popular N channels a flash-crowd ramp
	// (default 3).
	FlashCrowd int
	// ChurnIntervals is the churn-window length in refresh intervals
	// (default 8).
	ChurnIntervals int
	// Workers shards channels across goroutines (default DefaultWorkers).
	Workers int
	// MaxSources caps the shared lazy router's row cache (default 128 —
	// far below the node count, so concurrent channels constantly evict
	// and recompute each other's rows).
	MaxSources int
	// Seed drives everything.
	Seed int64
}

func (c ManyChannelConfig) withDefaults() ManyChannelConfig {
	if len(c.Tiers) == 0 {
		c.Tiers = []int{100, 1000, 10000}
	}
	if c.Routers == 0 {
		c.Routers = 96
	}
	if c.HostsPerRouter == 0 {
		c.HostsPerRouter = 4
	}
	if len(c.Protocols) == 0 {
		c.Protocols = []Protocol{HBH, REUNITE, PIMSM}
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.0
	}
	if c.MinReceivers == 0 {
		c.MinReceivers = 2
	}
	if c.MaxReceivers == 0 {
		c.MaxReceivers = 24
	}
	if c.ChurnRate == 0 {
		c.ChurnRate = 1.0
	}
	if c.FlashCrowd == 0 {
		c.FlashCrowd = 3
	}
	if c.ChurnIntervals == 0 {
		c.ChurnIntervals = 8
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.MaxSources == 0 {
		c.MaxSources = 128
	}
	return c
}

// mcSubstrate is the shared, immutable many-channel substrate: the
// frozen graph and the one concurrent lazy router every channel (on
// every worker) routes through.
type mcSubstrate struct {
	g      *topology.Graph
	router *unicast.Lazy
	hosts  []topology.NodeID
}

// buildMCSubstrate constructs the shared substrate: a BA router core
// with HostsPerRouter leaf hosts each, costs randomized once, then
// frozen — any later mutation attempt panics instead of corrupting
// concurrent workers.
func buildMCSubstrate(cfg ManyChannelConfig) *mcSubstrate {
	rng := rand.New(rand.NewSource(cfg.Seed ^ mcSubstrateSeed))
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: cfg.Routers, M: 2}, rng)
	var hosts []topology.NodeID
	idx := 0
	for _, r := range g.Routers() {
		for k := 0; k < cfg.HostsPerRouter; k++ {
			h := g.AddNode(topology.Host, addr.ReceiverAddr(idx), fmt.Sprintf("h%d", idx))
			g.AddLink(h, r, 1, 1)
			hosts = append(hosts, h)
			idx++
		}
	}
	g.RandomizeCosts(rng, 1, 10)
	g.Freeze()
	return &mcSubstrate{
		g:      g,
		router: unicast.NewLazy(g, unicast.LazyOptions{MaxSources: cfg.MaxSources}),
		hosts:  hosts,
	}
}

// channelHosts derives channel ci's member-host mapping and source host
// from (Seed, ci) alone: a shuffled host pool, the first entry being
// the source. memberHosts[m] is member m's host.
func (x *mcSubstrate) channelHosts(cfg ManyChannelConfig, ch workload.Channel) (topology.NodeID, []topology.NodeID) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(ch.Index+1)*mcSeedMix))
	perm := rng.Perm(len(x.hosts))
	if ch.Peak > len(perm)-1 {
		panic(fmt.Sprintf("experiment: channel %d needs %d member hosts, substrate has %d — raise Routers/HostsPerRouter",
			ch.Index, ch.Peak, len(perm)-1))
	}
	src := x.hosts[perm[0]]
	members := make([]topology.NodeID, ch.Peak)
	for m := range members {
		members[m] = x.hosts[perm[m+1]]
	}
	return src, members
}

// mcSession is one live channel over the shared substrate: its own
// virtual clock and packet network, the shared graph and router.
type mcSession struct {
	*session
	// apply performs one membership event now (nil for static PIM).
	apply func(ev workload.Event)
	// joined returns the currently joined members' probe views.
	joined func() []mtree.Member
}

// channelRNG is channel ch's join-jitter stream.
func channelRNG(cfg ManyChannelConfig, ch workload.Channel) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ int64(ch.Index+1)*mcSeedMix + 1))
}

// startHBH brings up one HBH channel with IGMP leaf aggregation:
// member hosts join via IGMP, the border routers' leaf agents collapse
// any number of local members into a single channel subscription — the
// paper's aggregation argument, which is what keeps per-channel MFT
// cost independent of local receiver counts. Initial members' joins
// are scheduled (jittered); the caller converges the sim.
func (x *mcSubstrate) startHBH(cfg ManyChannelConfig, ch workload.Channel,
	srcHost topology.NodeID, memberHosts []topology.NodeID, o *obs.Observer) *mcSession {
	rng := channelRNG(cfg, ch)
	s := startSession(RunConfig{Protocol: HBH, Obs: o}, x.g, x.router, srcHost,
		addr.GroupAddr(ch.Index), nil, rng)
	routerOf := make(map[topology.NodeID]*core.Router, len(s.routers))
	for i, r := range x.g.Routers() {
		routerOf[r] = s.routers[i].(*core.Router)
	}

	pcfg := core.DefaultConfig()
	icfg := igmp.DefaultConfig()
	queried := make(map[topology.NodeID]bool)
	agents := make([]*igmp.Host, len(memberHosts))
	for m, h := range memberHosts {
		r := x.g.AttachedRouter(h)
		if !queried[r] {
			q := igmp.AttachQuerier(s.net.Node(r), icfg)
			core.AttachLeafAgent(s.net.Node(r), q, routerOf[r], pcfg)
			queried[r] = true
		}
		agents[m] = igmp.AttachHost(s.net.Node(h), icfg)
	}
	for _, a := range agents[:ch.Receivers] {
		s.sim.At(eventsim.Time(rng.Float64())*pcfg.JoinInterval, func() { a.Join(s.ch) })
	}
	return &mcSession{
		session: s,
		apply: func(ev workload.Event) {
			if ev.Join {
				agents[ev.Member].Join(s.ch)
			} else {
				agents[ev.Member].Leave(s.ch)
			}
		},
		joined: func() []mtree.Member {
			var out []mtree.Member
			for _, a := range agents {
				if a.Joined(s.ch) {
					out = append(out, a)
				}
			}
			return out
		},
	}
}

// startREUNITE brings up one REUNITE channel; receivers attach
// directly (REUNITE has no IGMP aggregation layer here).
func (x *mcSubstrate) startREUNITE(cfg ManyChannelConfig, ch workload.Channel,
	srcHost topology.NodeID, memberHosts []topology.NodeID, o *obs.Observer) *mcSession {
	rng := channelRNG(cfg, ch)
	s := startSession(RunConfig{Protocol: REUNITE, Obs: o}, x.g, x.router, srcHost,
		addr.GroupAddr(ch.Index), memberHosts, rng)
	s.join(rng, ch.Receivers)
	return &mcSession{
		session: s,
		apply: func(ev workload.Event) {
			if ev.Join {
				s.rcvs[ev.Member].Join()
			} else {
				s.rcvs[ev.Member].Leave()
			}
		},
		joined: func() []mtree.Member {
			var out []mtree.Member
			for _, r := range s.rcvs {
				if r.Joined() {
					out = append(out, r)
				}
			}
			return out
		},
	}
}

// startPIM builds one PIM-SM channel for the channel's POST-churn
// membership: classical multicast has no cheap incremental membership
// path in this simulator (trees are installed centrally), so the
// comparison point is a statically provisioned tree for the population
// the dynamic protocols end up serving. Its control cost is reported
// as zero for the same reason.
func (x *mcSubstrate) startPIM(ch workload.Channel, srcHost topology.NodeID,
	memberHosts []topology.NodeID, o *obs.Observer) *mcSession {
	final := finalMembers(ch)
	hosts := make([]topology.NodeID, 0, len(final))
	for _, m := range final {
		hosts = append(hosts, memberHosts[m])
	}
	s := startSession(RunConfig{Protocol: PIMSM, Obs: o}, x.g, x.router, srcHost,
		addr.GroupAddr(ch.Index), hosts, nil)
	return &mcSession{session: s, joined: func() []mtree.Member { return s.members }}
}

// finalMembers returns the member indices joined after the channel's
// full event schedule, in index order.
func finalMembers(ch workload.Channel) []int {
	joined := make(map[int]bool, ch.Receivers)
	for m := 0; m < ch.Receivers; m++ {
		joined[m] = true
	}
	for _, ev := range ch.Events {
		joined[ev.Member] = ev.Join
	}
	out := make([]int, 0, len(joined))
	for m := 0; m < ch.Peak; m++ {
		if joined[m] {
			out = append(out, m)
		}
	}
	return out
}

// start dispatches to the protocol-specific channel bring-up.
func (x *mcSubstrate) start(cfg ManyChannelConfig, p Protocol, ch workload.Channel,
	o *obs.Observer) *mcSession {
	srcHost, memberHosts := x.channelHosts(cfg, ch)
	switch p {
	case HBH:
		return x.startHBH(cfg, ch, srcHost, memberHosts, o)
	case REUNITE:
		return x.startREUNITE(cfg, ch, srcHost, memberHosts, o)
	case PIMSM:
		return x.startPIM(ch, srcHost, memberHosts, o)
	default:
		panic(fmt.Sprintf("experiment: manychannel does not support protocol %q", p))
	}
}

// mcOutcome is one channel's integer results (everything the A14 table
// aggregates is exact, so sums are order-independent).
type mcOutcome struct {
	Receivers  int // members probed (post-churn population)
	MFTRouters int
	MFTEntries int
	MCTRouters int
	Ctrl       int // control transmissions, churn window + settle
	Events     int // membership events executed
	Missing    int // probe misses
}

// runChannel executes one channel's full lifecycle: converge the
// initial population, play the churn schedule, settle, then measure.
func (x *mcSubstrate) runChannel(cfg ManyChannelConfig, p Protocol, ch workload.Channel,
	o *obs.Observer) mcOutcome {
	s := x.start(cfg, p, ch, o)
	s.settle(mcConvergeIntervals)

	pre := s.net.Stats()
	if s.apply != nil && len(ch.Events) > 0 {
		base := s.sim.Now()
		for _, ev := range ch.Events {
			s.sim.At(base+ev.At, func() { s.apply(ev) })
		}
		if err := s.sim.Run(base + eventsim.Time(cfg.ChurnIntervals)*s.interval); err != nil {
			panic(fmt.Sprintf("experiment: manychannel churn window: %v", err))
		}
		s.settle(mcSettleIntervals)
	}
	ctrl := s.net.Stats().Delta(pre).Transmissions

	members := s.joined()
	res := s.probeUntil(members)
	fp := s.state()
	return mcOutcome{
		Receivers:  len(members),
		MFTRouters: fp.MFTRouters,
		MFTEntries: fp.MFTEntries,
		MCTRouters: fp.MCTRouters,
		Ctrl:       ctrl,
		Events:     len(ch.Events),
		Missing:    len(res.Missing),
	}
}

// ManyChannelRow aggregates one (protocol, tier) cell.
type ManyChannelRow struct {
	Protocol   Protocol
	Channels   int
	Receivers  int // total post-churn members across channels
	MFTRouters int // total routers holding data-plane state
	MFTEntries int // total data-plane rows
	MCTRouters int // total routers holding only control-plane state
	Ctrl       int // total control transmissions (churn window + settle)
	Events     int // total membership events executed
	Missing    int // total probe misses
	// CtrlPerChannel is the per-channel control-cost distribution,
	// folded in channel order.
	CtrlPerChannel metrics.Accumulator
	// Counters is the merged per-worker obs registry for the cell; its
	// Export is byte-identical at any worker count.
	Counters *obs.Counters
}

// ManyChannelResult is the full A14 sweep output.
type ManyChannelResult struct {
	Cfg       ManyChannelConfig
	Routers   int
	Hosts     int
	Edges     int
	LazyCap   int
	Rows      []ManyChannelRow
	LazyStats unicast.LazyStats // final shared-router cache stats (scheduling-dependent; not in the table)
}

// runCell shards one (protocol, tier) cell's channels across workers
// on the grid: each worker owns an obs registry, merged into the row
// at the barrier, and the channels fold in channel order.
func (x *mcSubstrate) runCell(cfg ManyChannelConfig, p Protocol, wl []workload.Channel) ManyChannelRow {
	obsW := make([]*obs.Observer, poolSize(cfg.Workers, len(wl)))
	for w := range obsW {
		obsW[w] = obs.New(nil)
		obsW[w].EnableCounters()
	}
	row := ManyChannelRow{Protocol: p, Channels: len(wl), Counters: obs.NewCounters()}
	grid(len(obsW), 1, len(wl), func(_, i, w int) func() {
		out := x.runChannel(cfg, p, wl[i], obsW[w])
		return func() {
			row.Receivers += out.Receivers
			row.MFTRouters += out.MFTRouters
			row.MFTEntries += out.MFTEntries
			row.MCTRouters += out.MCTRouters
			row.Ctrl += out.Ctrl
			row.Events += out.Events
			row.Missing += out.Missing
			row.CtrlPerChannel.Add(float64(out.Ctrl))
		}
	})
	for _, o := range obsW {
		row.Counters.Merge(o.Counters())
	}
	return row
}

// ManyChannelExperiment runs the A14 heavy-traffic sweep.
func ManyChannelExperiment(cfg ManyChannelConfig) *ManyChannelResult {
	cfg = cfg.withDefaults()
	x := buildMCSubstrate(cfg)
	res := &ManyChannelResult{
		Cfg:     cfg,
		Routers: len(x.g.Routers()),
		Hosts:   len(x.hosts),
		Edges:   x.g.NumEdges(),
		LazyCap: x.router.MaxSources(),
	}
	interval := core.DefaultConfig().TreeInterval
	for _, tier := range cfg.Tiers {
		wl := workload.Generate(workload.Config{
			Channels:     tier,
			ZipfS:        cfg.ZipfS,
			MinReceivers: cfg.MinReceivers,
			MaxReceivers: cfg.MaxReceivers,
			ChurnRate:    cfg.ChurnRate,
			FlashCrowd:   cfg.FlashCrowd,
			Horizon:      eventsim.Time(cfg.ChurnIntervals) * interval,
			Interval:     interval,
			Seed:         cfg.Seed,
		})
		for _, p := range cfg.Protocols {
			res.Rows = append(res.Rows, x.runCell(cfg, p, wl))
		}
	}
	res.LazyStats = x.router.Stats()
	return res
}

// FormatTable renders the bit-reproducible A14 table: only exactly
// summed integer columns (and exact integer ratios), no wall-clock and
// no cache statistics, so the bytes are identical at any worker count.
func (r *ManyChannelResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A14: aggregate state and control cost vs concurrent channel count\n")
	fmt.Fprintf(&b, "substrate: BA(%d routers, m=2) + %d hosts, %d edges; shared lazy router cap %d rows\n",
		r.Routers, r.Hosts, r.Edges, r.LazyCap)
	fmt.Fprintf(&b, "workload: zipf-s %.2f, receivers %d..%d, churn %.2f/interval, flash %d, window %d intervals, seed %d\n",
		r.Cfg.ZipfS, r.Cfg.MinReceivers, r.Cfg.MaxReceivers, r.Cfg.ChurnRate,
		r.Cfg.FlashCrowd, r.Cfg.ChurnIntervals, r.Cfg.Seed)
	fmt.Fprintf(&b, "state/ctrl are totals across channels at the post-churn probe; pim-sm is provisioned statically for the post-churn membership (ctrl n/a)\n\n")
	fmt.Fprintf(&b, "%9s  %8s  %9s  %8s  %10s  %8s  %11s  %9s  %7s  %7s\n",
		"channels", "proto", "receivers", "mft-rtrs", "mft-entries", "mct-rtrs",
		"entries/ch", "ctrl-msgs", "events", "missing")
	prev := -1
	for _, row := range r.Rows {
		if prev != -1 && row.Channels != prev {
			b.WriteByte('\n')
		}
		prev = row.Channels
		ctrl := strconv.Itoa(row.Ctrl)
		if row.Protocol == PIMSM {
			ctrl = "-"
		}
		fmt.Fprintf(&b, "%9d  %8s  %9d  %8d  %10d  %8d  %11s  %9s  %7d  %7d\n",
			row.Channels, row.Protocol, row.Receivers, row.MFTRouters,
			row.MFTEntries, row.MCTRouters,
			ratio(row.MFTEntries, row.Channels), ctrl, row.Events, row.Missing)
	}
	return b.String()
}

// ratio formats an exact two-decimal integer ratio (computed entirely
// in integer arithmetic, so the string is bit-reproducible).
func ratio(num, den int) string {
	if den == 0 {
		return "-"
	}
	scaled := (num*200 + den) / (2 * den) // round-half-up of num*100/den
	return fmt.Sprintf("%d.%02d", scaled/100, scaled%100)
}
