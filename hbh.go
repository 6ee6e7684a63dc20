package hbh

import (
	"math/rand"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/experiment"
	"hbh/internal/igmp"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/pim"
	"hbh/internal/reunite"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Aliases re-exporting the implementation types that make up the
// public API surface.
type (
	// Addr is a 32-bit IPv4-style unicast or class-D address.
	Addr = addr.Addr
	// Channel is the source-specific channel <S, G>.
	Channel = addr.Channel
	// Graph is a network topology with per-direction link costs.
	Graph = topology.Graph
	// NodeID identifies a node within a Graph.
	NodeID = topology.NodeID
	// Config carries HBH's soft-state timing constants.
	Config = core.Config
	// ReuniteConfig carries REUNITE's timing constants.
	ReuniteConfig = reunite.Config
	// Source is an HBH channel root.
	Source = core.Source
	// Receiver is an HBH member agent.
	Receiver = core.Receiver
	// Router is an HBH protocol engine on one router.
	Router = core.Router
	// ProbeResult is one tree measurement (cost, per-link copies,
	// per-member delays).
	ProbeResult = mtree.Result
	// Member is the receiver view used by tree probes.
	Member = mtree.Member
	// Time is virtual simulation time in cost units.
	Time = eventsim.Time
)

// DefaultConfig returns the HBH protocol timing used throughout the
// paper reproduction.
func DefaultConfig() Config { return core.DefaultConfig() }

// ISPSourceHost is the fixed multicast source of the ISP experiments
// (node 18 of the paper's Figure 6: the host attached to router 0).
const ISPSourceHost = topology.ISPSourceHost

// ISPTopology builds the paper's Figure 6 evaluation topology: 18
// routers with one potential-receiver host each.
func ISPTopology() *Graph { return topology.ISP() }

// RandomTopology builds a connected random topology with the given
// router count and average degree, one host per router, using rng.
// The paper's 50-node topology is RandomTopology(50, 8.6, rng).
func RandomTopology(routers int, avgDegree float64, rng *rand.Rand) *Graph {
	return topology.Random(topology.RandomConfig{
		Routers: routers, AvgDegree: avgDegree, Hosts: true,
	}, rng)
}

// LineTopology builds a chain of n routers with one host each — handy
// for experiments and tests.
func LineTopology(n int) *Graph { return topology.Line(n, true) }

// Group returns the conventional class-D group address number i.
func Group(i int) Addr { return addr.GroupAddr(i) }

// Network bundles a topology, its unicast routing tables, the
// discrete-event clock and the packet transport into one simulated
// network ready for protocol agents.
type Network struct {
	sim     *eventsim.Sim
	graph   *topology.Graph
	routing unicast.Router
	net     *netsim.Network
}

// NewNetwork builds the delay-shortest routing substrate for g and the
// simulator over it: every row filled up front on graphs up to 4096
// nodes, rows filled on demand into a bounded cache above (see
// unicast.New). The graph's costs must be final: mutate costs before
// this call.
func NewNetwork(g *Graph) *Network {
	return NewNetworkWithRouting(g, unicast.New(g))
}

// NewNetworkWithRouting builds the simulator over a pre-computed
// routing substrate — e.g. unicast.ComputeWidest for the QoS
// substrate. The substrate must have been computed for g.
func NewNetworkWithRouting(g *Graph, routing unicast.Router) *Network {
	sim := eventsim.New()
	return &Network{
		sim:     sim,
		graph:   g,
		routing: routing,
		net:     netsim.New(sim, g, routing),
	}
}

// Graph returns the topology.
func (nw *Network) Graph() *Graph { return nw.graph }

// Routing exposes the unicast routing substrate (shortest-path
// distances, next hops, full paths).
func (nw *Network) Routing() unicast.Router { return nw.routing }

// Inner returns the underlying netsim network for advanced use (taps,
// traces, custom handlers).
func (nw *Network) Inner() *netsim.Network { return nw.net }

// Now returns the current virtual time.
func (nw *Network) Now() Time { return nw.sim.Now() }

// RunFor advances the simulation by d time units, executing protocol
// events.
func (nw *Network) RunFor(d Time) {
	if err := nw.sim.Run(nw.sim.Now() + d); err != nil {
		panic(err)
	}
}

// At schedules fn at absolute virtual time t (e.g. staggered joins).
func (nw *Network) At(t Time, fn func()) { nw.sim.At(t, fn) }

// SetTrace installs a human-readable event tracer (nil removes it).
// The tracer is a text sink on an observer this call owns: it replaces
// whatever observer the network carried.
func (nw *Network) SetTrace(fn func(line string)) {
	if fn == nil {
		nw.net.SetObserver(nil)
		return
	}
	o := obs.New(nil) // SetObserver binds the network's clock
	o.AddSink(obs.NewTextSink(fn))
	nw.net.SetObserver(o)
}

// EnableHBH attaches an HBH protocol engine to every router and
// returns the handles keyed by node. To model partial deployment
// (unicast clouds), use EnableHBHOn instead.
func (nw *Network) EnableHBH(cfg Config) map[NodeID]*Router {
	return nw.EnableHBHOn(cfg, nw.graph.Routers())
}

// EnableHBHOn attaches HBH engines only on the given routers; all
// other routers stay unicast-only and are traversed transparently.
func (nw *Network) EnableHBHOn(cfg Config, routers []NodeID) map[NodeID]*Router {
	out := make(map[NodeID]*Router, len(routers))
	for _, r := range routers {
		out[r] = core.AttachRouter(nw.net.Node(r), cfg)
	}
	return out
}

// NewHBHSource roots an HBH channel <host's address, group> at the
// given host and starts its tree refresh.
func (nw *Network) NewHBHSource(host NodeID, group Addr, cfg Config) *Source {
	return core.AttachSource(nw.net.Node(host), group, cfg)
}

// NewHBHReceiver creates a (not yet joined) HBH member agent on host.
func (nw *Network) NewHBHReceiver(host NodeID, ch Channel, cfg Config) *Receiver {
	return core.AttachReceiver(nw.net.Node(host), ch, cfg)
}

// EnableREUNITE attaches a REUNITE engine to every router.
func (nw *Network) EnableREUNITE(cfg ReuniteConfig) {
	for _, r := range nw.graph.Routers() {
		reunite.AttachRouter(nw.net.Node(r), cfg)
	}
}

// NewREUNITESource roots a REUNITE channel at the given host.
func (nw *Network) NewREUNITESource(host NodeID, group Addr, cfg ReuniteConfig) *reunite.Source {
	return reunite.AttachSource(nw.net.Node(host), group, cfg)
}

// NewREUNITEReceiver creates a REUNITE member agent on host.
func (nw *Network) NewREUNITEReceiver(host NodeID, ch Channel, cfg ReuniteConfig) *reunite.Receiver {
	return reunite.AttachReceiver(nw.net.Node(host), ch, cfg)
}

// BuildPIMSS installs a PIM-SS-style source tree (reverse SPT) for the
// given member hosts.
func (nw *Network) BuildPIMSS(sourceHost NodeID, group Addr, members []NodeID) *pim.Session {
	return pim.Build(nw.net, pim.SS, sourceHost, group, members, topology.None)
}

// BuildPIMSM installs a PIM-SM-style shared tree. Pass topology.None
// as rp for the delay-optimal default.
func (nw *Network) BuildPIMSM(sourceHost NodeID, group Addr, members []NodeID, rp NodeID) *pim.Session {
	return pim.Build(nw.net, pim.SM, sourceHost, group, members, rp)
}

// Probe injects one data packet via send and measures the resulting
// distribution tree: total packet copies (tree cost), per-link copies,
// and per-member delays.
func (nw *Network) Probe(send func(payload []byte) uint32, members ...Member) *ProbeResult {
	return mtree.Probe(nw.net, func() uint32 { return send(nil) }, members)
}

// IGMP-layer aliases: local membership between hosts and their border
// router (the paper's receiver attachment model).
type (
	// IGMPConfig carries the local membership protocol's timing.
	IGMPConfig = igmp.Config
	// IGMPHost is the end-system membership agent (reports, query
	// responses, delivery recording). It implements Member.
	IGMPHost = igmp.Host
	// IGMPQuerier is the router-side membership tracker.
	IGMPQuerier = igmp.Querier
	// LeafAgent aggregates a router's local IGMP members behind one
	// HBH channel subscription.
	LeafAgent = core.LeafAgent
)

// DefaultIGMPConfig returns the local-membership timing used by the
// examples and tests.
func DefaultIGMPConfig() IGMPConfig { return igmp.DefaultConfig() }

// EnableIGMP turns router into an IGMP-serving border router wired
// into HBH: local membership reports subscribe the router to the
// channel, and channel data fans out to the local member hosts.
// hbhRouter is the handle returned by EnableHBH/EnableHBHOn for that
// node (nil if the router is unicast-only — the leaf agent then claims
// channel data itself). cfg is the HBH timing for the subscription.
func (nw *Network) EnableIGMP(router NodeID, hbhRouter *Router, cfg Config, icfg IGMPConfig) (*IGMPQuerier, *LeafAgent) {
	q := igmp.AttachQuerier(nw.net.Node(router), icfg)
	l := core.AttachLeafAgent(nw.net.Node(router), q, hbhRouter, cfg)
	return q, l
}

// NewIGMPHost creates the membership agent on an end host.
func (nw *Network) NewIGMPHost(host NodeID, icfg IGMPConfig) *IGMPHost {
	return igmp.AttachHost(nw.net.Node(host), icfg)
}

// Experiment harness re-exports: regenerate the paper's figures
// programmatically. See cmd/hbhsim for the command-line front end.
type (
	// Figure is an aggregated experiment sweep (one paper figure).
	Figure = experiment.Figure
	// StabilityResult is the Fig. 4 departure comparison.
	StabilityResult = experiment.StabilityResult
)

// Figure7a..Figure8b regenerate the corresponding paper figures with
// the given run count per data point (the paper uses 500).
var (
	Figure7a = experiment.Figure7a
	Figure7b = experiment.Figure7b
	Figure8a = experiment.Figure8a
	Figure8b = experiment.Figure8b
)
