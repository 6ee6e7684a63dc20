// Package netsim is the hop-by-hop network simulator the protocols run
// on. It moves packets over the topology one link at a time: each link
// traversal takes the link's directed cost in virtual time units, and
// every arrival is offered to the resident protocol handlers of the
// node before default unicast forwarding kicks in.
//
// That per-hop interception is the defining mechanism of both HBH and
// REUNITE: join messages travelling toward the source are examined
// (and possibly intercepted) by every multicast-capable router on the
// unicast path, and tree messages install state in every router they
// traverse. Unicast-only routers are simulated simply by not
// registering a protocol handler on them — they forward by destination
// address like any packet, which is exactly the paper's transparency
// argument.
package netsim

import (
	"fmt"
	"math/rand"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// DefaultHopLimit bounds the number of links a packet may traverse,
// mirroring the IP TTL. Protocol bugs that would loop forever surface
// as HopLimitDrops in the stats instead of hanging the simulation.
const DefaultHopLimit = 64

// Verdict is a handler's decision about an arriving packet.
type Verdict uint8

const (
	// Continue lets the packet proceed: default unicast forwarding if
	// this node is not the destination, local delivery otherwise.
	Continue Verdict = iota
	// Consumed removes the packet; the handler has taken over (it may
	// have emitted regenerated copies itself).
	Consumed
)

// Handler is a protocol entity resident on a node. Handle is invoked
// for every packet arriving at the node, whether addressed to it or
// transiting through it.
//
// msg is valid only for the duration of the call: the network reuses
// its storage once the packet's life ends, so whatever keeps a message
// longer keeps a packet.Clone of it. The same holds for DeliverFunc,
// Tap and DeliveryTap. A handler that lets a packet Continue may
// rewrite it in place (a tree's Src changes at every regenerating hop)
// but not its Dst: the route was resolved when the packet was sent.
type Handler interface {
	Handle(n ProtoNode, msg packet.Message) Verdict
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(n ProtoNode, msg packet.Message) Verdict

// Handle implements Handler.
func (f HandlerFunc) Handle(n ProtoNode, msg packet.Message) Verdict { return f(n, msg) }

// DeliverFunc receives packets locally delivered at a node (packets
// whose unicast destination is this node and that no handler consumed).
// msg is valid only for the duration of the call (see Handler).
type DeliverFunc func(n ProtoNode, msg packet.Message)

// Tap observes every link transmission. from and to are adjacent
// nodes; msg is the packet as transmitted. Taps must not mutate msg,
// which is valid only for the duration of the call (see Handler).
type Tap func(from, to topology.NodeID, msg packet.Message)

// DeliveryTap observes every packet that terminates at a node: either
// consumed by a protocol handler (consumed=true — the receiver-agent
// path both multicast protocols use) or locally delivered to the node's
// destination-address sink (consumed=false). Drops are not reported.
// Taps must not mutate msg, which is valid only for the duration of the
// call (see Handler). The invariant checker counts per-sequence data
// arrivals through this hook.
type DeliveryTap func(at topology.NodeID, msg packet.Message, consumed bool)

// Stats aggregates transport-level counters for one Network.
type Stats struct {
	Transmissions int // individual link traversals, all packet types
	DataCopies    int // link traversals by data packets (the paper's tree cost, per packet)
	Delivered     int // local deliveries
	DataDelivered int // local deliveries of data packets
	HopLimitDrops int // packets dropped for exceeding the hop limit
	NoRouteDrops  int // packets dropped for an unroutable destination
	Consumed      int // packets consumed by handlers
	DataConsumed  int // data packets consumed by handlers (receivers and branching nodes)
	LossDrops     int // control packets dropped by the loss model
	DataLossDrops int // data packets dropped by the loss model
	LinkDownDrops int // packets dropped at a disabled (failed) link
	NodeDownDrops int // packets dropped at or by a down node
	AdvLossDrops  int // control packets dropped by the adversary (burst or uniform)
	AdvDups       int // control packet copies injected by the adversary
	DataDrops     int // data packets dropped for any reason (subset of the drop counters)
}

// DeliveryRatio returns the fraction of terminated data-packet copies
// that reached a protocol entity (handler consumption at a receiver or
// branching node, or local delivery) rather than being dropped. It is
// the transport-level delivery ratio the failure experiments report
// over a measurement window (snapshot Stats before and after, Delta,
// then DeliveryRatio); per-receiver application-level ratios come from
// metrics.DeliveryMatrix instead. With no data traffic it returns 1.
func (s Stats) DeliveryRatio() float64 {
	ok := s.DataDelivered + s.DataConsumed
	total := ok + s.DataDrops
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Delta returns the counter differences s - prev, for windowed
// measurements over a running network.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Transmissions: s.Transmissions - prev.Transmissions,
		DataCopies:    s.DataCopies - prev.DataCopies,
		Delivered:     s.Delivered - prev.Delivered,
		DataDelivered: s.DataDelivered - prev.DataDelivered,
		HopLimitDrops: s.HopLimitDrops - prev.HopLimitDrops,
		NoRouteDrops:  s.NoRouteDrops - prev.NoRouteDrops,
		Consumed:      s.Consumed - prev.Consumed,
		DataConsumed:  s.DataConsumed - prev.DataConsumed,
		LossDrops:     s.LossDrops - prev.LossDrops,
		DataLossDrops: s.DataLossDrops - prev.DataLossDrops,
		LinkDownDrops: s.LinkDownDrops - prev.LinkDownDrops,
		NodeDownDrops: s.NodeDownDrops - prev.NodeDownDrops,
		AdvLossDrops:  s.AdvLossDrops - prev.AdvLossDrops,
		AdvDups:       s.AdvDups - prev.AdvDups,
		DataDrops:     s.DataDrops - prev.DataDrops,
	}
}

// Network binds a topology, its unicast routing tables and a
// discrete-event clock into a running packet network.
type Network struct {
	sim     *eventsim.Sim
	clk     clock.Clock
	topo    *topology.Graph
	routing unicast.Router
	nodes   []*Node

	taps    []Tap
	delTaps []DeliveryTap
	// obsv is the structured observability pipeline. nil means fully
	// disabled: every emission site nil-checks it before building any
	// event, which keeps the forwarding hot path allocation-free.
	obsv      *obs.Observer
	hopLimit  int
	wireCheck bool
	loss      LossModel
	// adv is the installed control-plane adversary; nil (the default)
	// keeps the forwarding path byte-for-byte identical to a network
	// without one.
	adv *advState
	// nodeDown marks crashed nodes: they neither handle, forward nor
	// originate packets until brought back up (see SetNodeUp).
	nodeDown []bool
	stats    Stats
	// cur is the ambient causal context: set from the in-flight
	// envelope for the duration of each arrival (so everything a
	// handler does inherits the packet's episode), explicitly installed
	// by timer-driven emitters that act on behalf of recorded state
	// (the source's tree refresh), and zero otherwise. The simulator is
	// single-threaded, so one slot suffices.
	cur obs.Causal
	// freeEnv recycles envelopes so steady-state forwarding allocates
	// nothing: every terminal point of a packet's life (drop, consume,
	// deliver) returns its envelope here.
	freeEnv []*envelope
}

// Node is the per-vertex runtime state: the resident handlers and the
// local delivery sink.
type Node struct {
	net      *Network
	id       topology.NodeID
	addr     addr.Addr
	name     string
	handlers []Handler
	deliver  DeliverFunc
}

// New builds a network over g with routing substrate r (computed from
// g — eager tables or the lazy per-source router, see unicast.New) and
// clock sim.
func New(sim *eventsim.Sim, g *topology.Graph, r unicast.Router) *Network {
	if r.Graph() != g {
		panic("netsim: routing tables computed for a different graph")
	}
	n := &Network{sim: sim, clk: clock.Sim(sim), topo: g, routing: r, hopLimit: DefaultHopLimit}
	n.nodes = make([]*Node, g.NumNodes())
	n.nodeDown = make([]bool, g.NumNodes())
	for _, nd := range g.Nodes() {
		n.nodes[nd.ID] = &Node{net: n, id: nd.ID, addr: nd.Addr, name: nd.Name}
	}
	return n
}

// Sim returns the event clock.
func (n *Network) Sim() *eventsim.Sim { return n.sim }

// Clock returns the simulator wrapped as an abstract clock.
func (n *Network) Clock() clock.Clock { return n.clk }

// Now returns the current virtual time.
func (n *Network) Now() eventsim.Time { return n.sim.Now() }

// Topology returns the underlying graph.
func (n *Network) Topology() *topology.Graph { return n.topo }

// Routing returns the unicast routing substrate.
func (n *Network) Routing() unicast.Router { return n.routing }

// SetRouting swaps in freshly computed routing tables mid-run, e.g.
// after a topology change recomputed them from scratch. The tables
// must belong to this network's graph. (Tables mutated in place via
// Routing().Recompute* need no swap — the network always consults the
// live object.)
func (n *Network) SetRouting(r unicast.Router) {
	if r.Graph() != n.topo {
		panic("netsim: SetRouting with tables computed for a different graph")
	}
	n.routing = r
}

// SetNodeUp marks a node as up (the default) or down. A down node is
// the fault model of a crashed router or host: packets arriving at it,
// transiting it, or originated by its resident agents are dropped and
// counted as NodeDownDrops. Protocol soft state held by agents on the
// node is untouched — wiping it on crash is the protocol layer's
// decision (e.g. core.Router.Reset), not the transport's.
func (n *Network) SetNodeUp(id topology.NodeID, up bool) {
	n.nodeDown[id] = !up
}

// NodeUp reports whether the node is up.
func (n *Network) NodeUp(id topology.NodeID) bool { return !n.nodeDown[id] }

// Node returns the runtime node for id.
func (n *Network) Node(id topology.NodeID) *Node { return n.nodes[id] }

// NodeByAddr returns the runtime node owning unicast address a.
func (n *Network) NodeByAddr(a addr.Addr) *Node {
	return n.nodes[n.topo.MustByAddr(a)]
}

// Stats returns a snapshot of the transport counters.
func (n *Network) Stats() Stats { return n.stats }

// ResetStats zeroes the transport counters. Experiments reset between
// the convergence phase and the measurement probe.
func (n *Network) ResetStats() { n.stats = Stats{} }

// AddTap registers a link observer for the life of the network.
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// WithTap runs fn with t registered as a link observer and removes it
// again, so a measurement that is repeated (a probe) does not leave one
// more tap behind every time for all later traffic to pay.
func (n *Network) WithTap(t Tap, fn func()) {
	i := len(n.taps)
	n.taps = append(n.taps, t)
	fn()
	n.taps = append(n.taps[:i], n.taps[i+1:]...)
}

// AddDeliveryTap registers a packet-termination observer.
func (n *Network) AddDeliveryTap(t DeliveryTap) { n.delTaps = append(n.delTaps, t) }

// SetObserver installs (or, with nil, removes) the structured
// observability pipeline. All transport events — sends, per-hop
// forwards, consumes, deliveries, and cause-attributed drops — flow
// into it; the protocol engines discover it through Observer() and add
// their control-plane events to the same stream.
func (n *Network) SetObserver(o *obs.Observer) {
	if o != nil {
		// Bind the network's clock: CLI code builds the observer before
		// the simulation exists.
		o.SetNow(func() eventsim.Time { return n.sim.Now() })
	}
	n.obsv = o
}

// Observer returns the installed pipeline (nil when observation is
// off). Protocol code must nil-check before building events.
func (n *Network) Observer() *obs.Observer { return n.obsv }

// SetWireCheck turns on strict-wire mode: every link transmission
// marshals the message to its binary wire format and decodes it again
// on arrival, exactly as a real network would. The simulator normally
// forwards the decoded message by reference hop to hop (zero-copy) and
// serializes only at capture boundaries; strict-wire mode proves the
// wire formats are complete (nothing the protocols rely on is lost in
// encoding) under live protocol traffic, so tests keep the codec
// honest without taxing every simulation run. A codec failure panics:
// it is always a format bug.
func (n *Network) SetWireCheck(on bool) { n.wireCheck = on }

// LossModel configures probabilistic per-link packet drops. Control
// and Data are independent per-traversal drop probabilities in [0, 1)
// for non-data and data packets respectively; RNG drives the draws and
// must be non-nil when either rate is positive. A control-only model
// (Data zero, the A6 experiment) keeps tree measurements meaningful:
// what degrades under loss is the protocol state that routes the data.
type LossModel struct {
	Control float64
	Data    float64
	RNG     *rand.Rand
}

func (m LossModel) validate() {
	for _, p := range []float64{m.Control, m.Data} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("netsim: loss rate %v out of [0,1)", p))
		}
	}
	if (m.Control > 0 || m.Data > 0) && m.RNG == nil {
		panic("netsim: loss model needs an RNG")
	}
}

// SetLossModel installs (or, with the zero model, removes) the
// per-link loss model. Dropped control packets count as LossDrops,
// dropped data packets as DataLossDrops; the latter feed the
// delivery-ratio measurements of the failure experiments.
func (n *Network) SetLossModel(m LossModel) {
	m.validate()
	n.loss = m
}

// SetHopLimit overrides the per-packet hop budget.
func (n *Network) SetHopLimit(l int) {
	if l < 1 {
		panic("netsim: hop limit must be positive")
	}
	n.hopLimit = l
}

// Tracef emits a free-form annotation into the event stream (a no-op
// when observation is off). External layers use it so their notes
// interleave with the packet trace; the fault injector emits structured
// obs.KindFault events instead.
func (n *Network) Tracef(format string, args ...any) { n.obsv.Notef(format, args...) }

// emitMsg builds and emits one transport event for msg, stamped with
// the ambient causal context (the event's parent is the most recent
// step of the context; the event gets a fresh step, returned so the
// caller can chain a packet's in-flight causal pair to it). Callers
// must have checked n.obsv != nil first — this keeps argument
// construction (interface boxing, channel/seq extraction) entirely off
// the disabled path, where it used to dominate whole-run CPU profiles
// at >50% when done eagerly.
func (n *Network) emitMsg(kind obs.Kind, cause obs.Cause, nd, peer *Node, msg packet.Message) obs.StepID {
	ev := obs.Event{
		Kind: kind, Cause: cause, Msg: msg, Channel: msg.Hdr().Channel,
		Episode: n.cur.Episode, ParentStep: n.cur.Step, Step: n.obsv.NewStep(),
	}
	if nd != nil {
		ev.Node, ev.NodeName = nd.addr, nd.name
	}
	if peer != nil {
		ev.Peer, ev.PeerName = peer.addr, peer.name
	}
	if d, ok := msg.(*packet.Data); ok {
		ev.Seq = d.Seq
	}
	n.obsv.Emit(ev)
	return ev.Step
}

// emitEnv is emitMsg for an in-flight envelope: the event's parent is
// the envelope's own causal step (the send or the previous hop), not
// the ambient context, and per-hop forwards advance the envelope's
// step so the next hop chains to this one.
func (n *Network) emitEnv(kind obs.Kind, cause obs.Cause, nd, peer *Node, env *envelope) {
	saved := n.cur
	n.cur = env.cause
	step := n.emitMsg(kind, cause, nd, peer, env.msg)
	if kind == obs.KindForward {
		env.cause.Step = step
	}
	n.cur = saved
}

// NodeName returns the topology label of a node, for diagnostics.
func (n *Network) NodeName(id topology.NodeID) string { return n.nodes[id].name }

// CausalContext returns the ambient causal context: the episode and
// step everything emitted right now will be attributed to. Zero
// outside packet arrivals and explicit installations.
func (n *Network) CausalContext() obs.Causal { return n.cur }

// SetCausalContext installs c as the ambient causal context. Timer
// driven emitters that act on behalf of recorded state use it to
// attribute their emissions to the episode that installed the state
// (the source's periodic tree refresh attributes each tree to the join
// that installed or last refreshed its entry); callers must restore
// the previous context when done.
func (n *Network) SetCausalContext(c obs.Causal) { n.cur = c }

// RootEpisode allocates a fresh causal episode and installs it as the
// ambient context when none is active (the spontaneous-action case:
// receiver join timers, soft-state expiries, fault injection). The
// previous context is returned for restoration; when an episode is
// already active, or observation is off, nothing changes.
func (n *Network) RootEpisode() obs.Causal {
	prev := n.cur
	if n.obsv != nil && prev.Episode == 0 {
		n.cur = obs.Causal{Episode: n.obsv.NewEpisode()}
	}
	return prev
}

// dropData records the loss of a data packet for delivery-ratio
// accounting; call alongside the specific drop counter.
func (n *Network) dropData(msg packet.Message) {
	if _, isData := msg.(*packet.Data); isData {
		n.stats.DataDrops++
	}
}

// ID returns the node's topology ID.
func (nd *Node) ID() topology.NodeID { return nd.id }

// Addr returns the node's unicast address.
func (nd *Node) Addr() addr.Addr { return nd.addr }

// Name returns the node's topology label.
func (nd *Node) Name() string { return nd.name }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// Clock returns the network's abstract clock (ProtoNode).
func (nd *Node) Clock() clock.Clock { return nd.net.clk }

// Topology returns the network's graph (ProtoNode).
func (nd *Node) Topology() *topology.Graph { return nd.net.topo }

// Routing returns the network's unicast substrate (ProtoNode).
func (nd *Node) Routing() unicast.Router { return nd.net.routing }

// Observer returns the attached observer, or nil (ProtoNode).
func (nd *Node) Observer() *obs.Observer { return nd.net.obsv }

// AddHandler registers a protocol handler on the node. Handlers run in
// registration order; the first Consumed verdict wins.
func (nd *Node) AddHandler(h Handler) { nd.handlers = append(nd.handlers, h) }

// Observing reports whether an observability pipeline is attached.
// Engines check it before assembling event details that cost anything
// to build (formatted strings, slices).
func (nd *Node) Observing() bool { return nd.net.obsv != nil }

// EmitProto emits one protocol-level event at this node into the
// network's observability pipeline (a cheap no-op when observation is
// off). The engines use it for join interception, tree adoption,
// fusion, and table mutations; peer is the other endpoint when there
// is one, seq the data sequence number for replication events. The
// event is stamped with the ambient causal context and its (episode,
// step) pair is returned so engines can record table-entry provenance;
// the zero Causal is returned when observation is off.
func (nd *Node) EmitProto(kind obs.Kind, ch addr.Channel, peer addr.Addr, seq uint32, detail string) obs.Causal {
	o := nd.net.obsv
	if o == nil {
		return obs.Causal{}
	}
	ev := obs.Event{
		Kind: kind, Node: nd.addr, NodeName: nd.name,
		Channel: ch, Peer: peer, Seq: seq, Detail: detail,
	}
	if peer != addr.Unspecified {
		if id, ok := nd.net.topo.ByAddr(peer); ok {
			ev.PeerName = nd.net.nodes[id].name
		}
	}
	ev.Episode = nd.net.cur.Episode
	ev.ParentStep = nd.net.cur.Step
	ev.Step = o.NewStep()
	o.Emit(ev)
	return obs.Causal{Episode: ev.Episode, Step: ev.Step}
}

// CausalContext returns the node's network's ambient causal context.
func (nd *Node) CausalContext() obs.Causal { return nd.net.cur }

// SetCausalContext installs c as the ambient causal context (see
// Network.SetCausalContext).
func (nd *Node) SetCausalContext(c obs.Causal) { nd.net.cur = c }

// RootEpisode roots a fresh causal episode when none is active,
// returning the previous context (see Network.RootEpisode).
func (nd *Node) RootEpisode() obs.Causal { return nd.net.RootEpisode() }

// StampCausal fills ev's causal fields from the ambient context,
// allocating a fresh step and advancing the context to it, so whatever
// the caller emits next becomes this event's causal child. Agents that
// build events by hand (the receiver's join emission, the fault
// injector) use it; EmitProto stamps automatically. No-op when
// observation is off.
func (n *Network) StampCausal(ev *obs.Event) {
	o := n.obsv
	if o == nil {
		return
	}
	ev.Episode = n.cur.Episode
	ev.ParentStep = n.cur.Step
	ev.Step = o.NewStep()
	n.cur.Step = ev.Step
}

// StampCausal stamps ev from the ambient context (see
// Network.StampCausal).
func (nd *Node) StampCausal(ev *obs.Event) { nd.net.StampCausal(ev) }

// SetDeliver installs the local delivery sink.
func (nd *Node) SetDeliver(d DeliverFunc) { nd.deliver = d }

// envelope carries a packet in flight together with its hop budget.
// The decoded message travels by reference from hop to hop — nothing
// re-encodes it in transit (zero-copy forwarding); serialization
// happens only at capture taps and under the opt-in strict-wire mode
// (SetWireCheck). The envelope doubles as the eventsim.Caller for its
// own next arrival, so a hop costs no closure or event allocation, and
// envelopes themselves recycle through Network.freeEnv, so steady-state
// forwarding allocates nothing at all.
type envelope struct {
	msg packet.Message
	// data is the storage of a data packet in flight: a sent
	// *packet.Data is copied here and msg points at the copy, so the
	// packet lives and dies with its envelope and a replicating engine
	// sends every copy from one scratch value instead of allocating
	// each. Control messages travel in the value the sender built.
	data packet.Data
	hops int
	net  *Network
	to   topology.NodeID // arrival node of the in-flight transmission
	// dst is the node owning the packet's unicast destination address,
	// resolved once at send; topology.None when no node owns it.
	dst topology.NodeID
	// cause is the packet's causal pair: the episode it belongs to and
	// the step of its most recent transport event (send or last hop).
	// In-band simulator metadata only — the wire format is untouched.
	cause obs.Causal
}

// Fire delivers the in-flight transmission at its arrival node, with
// the packet's causal pair as the ambient context for everything the
// arrival triggers (handler emissions, regenerated messages).
func (e *envelope) Fire() {
	n := e.net
	n.cur = e.cause
	n.arrive(e.to, e)
	n.cur = obs.Causal{}
}

// newEnvelope takes an envelope from the freelist (or allocates one),
// loads msg bound for node dst and arms it with a full hop budget.
func (n *Network) newEnvelope(msg packet.Message, dst topology.NodeID) *envelope {
	var env *envelope
	if k := len(n.freeEnv); k > 0 {
		env = n.freeEnv[k-1]
		n.freeEnv = n.freeEnv[:k-1]
		env.to = 0
		env.cause = obs.Causal{}
	} else {
		env = &envelope{net: n}
	}
	if d, ok := msg.(*packet.Data); ok {
		env.data = *d
		msg = &env.data
	}
	env.msg = msg
	env.dst = dst
	env.hops = n.hopLimit
	return env
}

// recycle returns an envelope whose packet's life ended (dropped,
// consumed, delivered). The message and payload references are cleared
// so the freelist never pins packets; each envelope is referenced from
// exactly one place at a time, so every terminal branch recycles
// exactly once.
func (n *Network) recycle(env *envelope) {
	env.msg = nil
	env.data.Payload = nil
	n.freeEnv = append(n.freeEnv, env)
}

// SendUnicast originates msg at this node and forwards it hop by hop
// toward msg.Hdr().Dst using the unicast tables. The packet is
// processed by handlers at every intermediate node. Sending to oneself
// delivers locally after handler processing, with no link traversal.
func (nd *Node) SendUnicast(msg packet.Message) {
	if nd.net.obsv != nil && nd.net.cur.Episode == 0 {
		// Spontaneous origination (a timer fired, nothing arrived):
		// this send roots a fresh causal episode.
		nd.net.cur = obs.Causal{Episode: nd.net.obsv.NewEpisode()}
		nd.sendUnicast(msg)
		nd.net.cur = obs.Causal{}
		return
	}
	nd.sendUnicast(msg)
}

func (nd *Node) sendUnicast(msg packet.Message) {
	h := msg.Hdr()
	if nd.net.nodeDown[nd.id] {
		// A crashed node originates nothing; its agents' timers may
		// still fire, but whatever they emit dies here.
		nd.net.stats.NodeDownDrops++
		nd.net.dropData(msg)
		if nd.net.obsv != nil {
			nd.net.emitMsg(obs.KindDrop, obs.CauseNodeDown, nd, nil, msg)
		}
		return
	}
	if !h.Dst.IsUnicast() {
		if nd.net.obsv != nil {
			nd.net.emitMsg(obs.KindDrop, obs.CauseNonUnicast, nd, nil, msg)
		}
		nd.net.stats.NoRouteDrops++
		nd.net.dropData(msg)
		return
	}
	var sendStep obs.StepID
	if nd.net.obsv != nil {
		sendStep = nd.net.emitMsg(obs.KindSend, obs.CauseNone, nd, nil, msg)
	}
	dst, ok := nd.net.topo.ByAddr(h.Dst)
	if !ok {
		nd.net.stats.NoRouteDrops++
		nd.net.dropData(msg)
		if nd.net.obsv != nil {
			nd.net.emitMsg(obs.KindDrop, obs.CauseNoRoute, nd, nil, msg)
		}
		return
	}
	env := nd.net.newEnvelope(msg, dst)
	if sendStep != 0 {
		env.cause = obs.Causal{Episode: nd.net.cur.Episode, Step: sendStep}
	}
	if dst == nd.id {
		// Local: process immediately in a fresh event for causal order.
		env.to = nd.id
		nd.net.sim.AfterCall(0, env)
		return
	}
	nd.net.forward(nd.id, env)
}

// SendDirect transmits msg over the single link to adjacent node to,
// regardless of msg's destination address. Protocol handlers use this
// to source-route copies over an explicitly constructed tree (PIM's
// native multicast forwarding).
func (nd *Node) SendDirect(to topology.NodeID, msg packet.Message) {
	if nd.net.obsv != nil && nd.net.cur.Episode == 0 {
		nd.net.cur = obs.Causal{Episode: nd.net.obsv.NewEpisode()}
		nd.sendDirect(to, msg)
		nd.net.cur = obs.Causal{}
		return
	}
	nd.sendDirect(to, msg)
}

func (nd *Node) sendDirect(to topology.NodeID, msg packet.Message) {
	if !nd.net.topo.HasLink(nd.id, to) {
		panic(fmt.Sprintf("netsim: SendDirect %s -> %s without a link",
			nd.name, nd.net.nodes[to].name))
	}
	if nd.net.nodeDown[nd.id] {
		nd.net.stats.NodeDownDrops++
		nd.net.dropData(msg)
		if nd.net.obsv != nil {
			nd.net.emitMsg(obs.KindDrop, obs.CauseNodeDown, nd, nil, msg)
		}
		return
	}
	var sendStep obs.StepID
	if nd.net.obsv != nil {
		sendStep = nd.net.emitMsg(obs.KindSendDirect, obs.CauseNone, nd, nd.net.nodes[to], msg)
	}
	dst, ok := nd.net.topo.ByAddr(msg.Hdr().Dst)
	if !ok {
		dst = topology.None // native multicast, or nobody's address
	}
	env := nd.net.newEnvelope(msg, dst)
	if sendStep != 0 {
		env.cause = obs.Causal{Episode: nd.net.cur.Episode, Step: sendStep}
	}
	nd.net.transmit(nd.id, to, env)
}

// forward routes env one hop closer to its destination: one routing
// query, whose topology.None answer (from is never the destination
// here) means unreachable.
func (n *Network) forward(from topology.NodeID, env *envelope) {
	next := topology.None
	if env.dst != topology.None {
		next = n.routing.NextHop(from, env.dst)
	}
	if next == topology.None {
		n.stats.NoRouteDrops++
		n.dropData(env.msg)
		if n.obsv != nil {
			n.emitEnv(obs.KindDrop, obs.CauseNoRoute, n.nodes[from], nil, env)
		}
		n.recycle(env)
		return
	}
	n.transmit(from, next, env)
}

// transmit moves env over the link from->to, charging the directed
// link cost as delay and decrementing the hop budget.
func (n *Network) transmit(from, to topology.NodeID, env *envelope) {
	if env.hops <= 0 {
		n.stats.HopLimitDrops++
		n.dropData(env.msg)
		if n.obsv != nil {
			n.emitEnv(obs.KindDrop, obs.CauseHopLimit, n.nodes[from], nil, env)
		}
		n.recycle(env)
		return
	}
	env.hops--
	if !n.topo.LinkEnabled(from, to) {
		// The link is administratively down (fault injection). Packets
		// already routed onto it die here, exactly like frames on a cut
		// wire; the stale routing that chose it is the unicast layer's
		// problem until Recompute converges it.
		n.stats.LinkDownDrops++
		n.dropData(env.msg)
		if n.obsv != nil {
			n.emitEnv(obs.KindDrop, obs.CauseLinkDown, n.nodes[from], n.nodes[to], env)
		}
		n.recycle(env)
		return
	}
	cost := n.topo.Cost(from, to)
	if cost == 0 {
		panic(fmt.Sprintf("netsim: transmit over missing link %d->%d", from, to))
	}
	if n.loss.Control > 0 || n.loss.Data > 0 {
		_, isData := env.msg.(*packet.Data)
		switch {
		case !isData && n.loss.Control > 0 && n.loss.RNG.Float64() < n.loss.Control:
			n.stats.LossDrops++
			if n.obsv != nil {
				n.emitEnv(obs.KindDrop, obs.CauseLoss, n.nodes[from], n.nodes[to], env)
			}
			n.recycle(env)
			return
		case isData && n.loss.Data > 0 && n.loss.RNG.Float64() < n.loss.Data:
			n.stats.DataLossDrops++
			n.stats.DataDrops++
			if n.obsv != nil {
				n.emitEnv(obs.KindDrop, obs.CauseLoss, n.nodes[from], n.nodes[to], env)
			}
			n.recycle(env)
			return
		}
	}
	// The control-plane adversary sits after the loss model and before
	// the wire: it decides each control traversal's fate (drop, jitter,
	// duplicate) with seeded draws. Data packets pass untouched.
	var advJitter, advDupJitter eventsim.Time
	advDup := false
	if n.adv != nil {
		if _, isData := env.msg.(*packet.Data); !isData {
			drop, jit, dupJit, dup := n.adv.roll()
			if drop {
				n.stats.AdvLossDrops++
				if n.obsv != nil {
					n.emitEnv(obs.KindDrop, obs.CauseAdvLoss, n.nodes[from], n.nodes[to], env)
				}
				n.recycle(env)
				return
			}
			advJitter, advDupJitter, advDup = jit, dupJit, dup
		}
	}
	if n.wireCheck {
		buf, err := packet.Marshal(env.msg)
		if err != nil {
			panic(fmt.Sprintf("netsim: wire-check marshal on %d->%d: %v", from, to, err))
		}
		decoded, err := packet.Unmarshal(buf)
		if err != nil {
			panic(fmt.Sprintf("netsim: wire-check unmarshal on %d->%d: %v", from, to, err))
		}
		env.msg = decoded
	}
	n.stats.Transmissions++
	if _, isData := env.msg.(*packet.Data); isData {
		n.stats.DataCopies++
	}
	for _, tap := range n.taps {
		tap(from, to, env.msg)
	}
	if n.obsv != nil {
		n.emitEnv(obs.KindForward, obs.CauseNone, n.nodes[from], n.nodes[to], env)
		if lt := n.obsv.Latency(); lt != nil {
			// The per-hop delay this traversal will take: link cost plus
			// any adversarial jitter (virtual units).
			lt.ObserveHop(float64(eventsim.Time(cost) + advJitter))
		}
	}
	env.to = to
	if advDup {
		n.duplicate(from, to, env, eventsim.Time(cost)+advDupJitter)
	}
	n.sim.AfterCall(eventsim.Time(cost)+advJitter, env)
}

// arrive processes env at node v: handlers first, then local delivery
// or onward forwarding.
func (n *Network) arrive(v topology.NodeID, env *envelope) {
	nd := n.nodes[v]
	if n.nodeDown[v] {
		// A crashed node handles nothing: no interception, no
		// forwarding, no delivery.
		n.stats.NodeDownDrops++
		n.dropData(env.msg)
		if n.obsv != nil {
			n.emitMsg(obs.KindDrop, obs.CauseNodeDown, nd, nil, env.msg)
		}
		n.recycle(env)
		return
	}
	for _, h := range nd.handlers {
		if h.Handle(nd, env.msg) == Consumed {
			n.stats.Consumed++
			if _, isData := env.msg.(*packet.Data); isData {
				n.stats.DataConsumed++
			}
			if n.obsv != nil {
				n.emitMsg(obs.KindConsume, obs.CauseNone, nd, nil, env.msg)
			}
			for _, t := range n.delTaps {
				t(v, env.msg, true)
			}
			n.recycle(env)
			return
		}
	}
	hdr := env.msg.Hdr()
	if hdr.Dst == nd.addr {
		n.stats.Delivered++
		if _, isData := env.msg.(*packet.Data); isData {
			n.stats.DataDelivered++
		}
		if n.obsv != nil {
			n.emitMsg(obs.KindDeliver, obs.CauseNone, nd, nil, env.msg)
		}
		if nd.deliver != nil {
			nd.deliver(nd, env.msg)
		}
		for _, t := range n.delTaps {
			t(v, env.msg, false)
		}
		n.recycle(env)
		return
	}
	if !hdr.Dst.IsUnicast() {
		// Undeliverable multicast destination: only handlers can
		// forward those, and none claimed it.
		n.stats.NoRouteDrops++
		n.dropData(env.msg)
		if n.obsv != nil {
			n.emitMsg(obs.KindDrop, obs.CauseUnclaimedMulticast, nd, nil, env.msg)
		}
		n.recycle(env)
		return
	}
	n.forward(v, env)
}
