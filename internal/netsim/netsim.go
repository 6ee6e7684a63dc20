// Package netsim is the hop-by-hop network the protocols run on. It
// moves packets over the topology one link at a time: each link
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
//
// The ladder a packet climbs — send, then at every node handlers, then
// consume, deliver or forward, then the link — is implemented once,
// here. The one step that differs between worlds is the link crossing
// (Wire): the simulator's envelope rides the event queue by reference;
// the live runtime (internal/live, NewWired) frames the packet onto a
// transport and queues what arrives on the destination's own clock.
package netsim

import (
	"fmt"
	"sync"

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
// transiting through it, with the packet's causal pair c: whatever the
// handler emits, sends or installs because the packet arrived is an
// effect of c, and the handler passes c on to it (ProtoNode.Emit,
// ProtoNode.Send, a table entry's Cause).
//
// msg is valid only for the duration of the call: the network reuses
// its storage once the packet's life ends, so whatever keeps a message
// longer keeps a packet.Clone of it. The same holds for DeliverFunc,
// Tap and DeliveryTap. A handler that lets a packet Continue may
// rewrite it in place (a tree's Src changes at every regenerating hop)
// but not its Dst: the route was resolved when the packet was sent.
type Handler interface {
	Handle(n ProtoNode, msg packet.Message, c obs.Causal) Verdict
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(n ProtoNode, msg packet.Message, c obs.Causal) Verdict

// Handle implements Handler.
func (f HandlerFunc) Handle(n ProtoNode, msg packet.Message, c obs.Causal) Verdict {
	return f(n, msg, c)
}

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
	LinkDownDrops int // packets dropped at a disabled (failed) link
	NodeDownDrops int // packets dropped at or by a down node
	AdvLossDrops  int // control packets dropped by the adversary (burst or uniform)
	AdvDups       int // control packet copies injected by the adversary
	DataDrops     int // data packets dropped for any reason (subset of the drop counters)
	CodecDrops    int // frames a wire received and refused: undecodable, or from no neighbour
	SendErrors    int // frames a wire's transport refused (a closed socket, an address-book miss)
}

// zip applies f to every counter of s and its counterpart in o.
func (s *Stats) zip(o *Stats, f func(a *int, b int)) {
	f(&s.Transmissions, o.Transmissions)
	f(&s.DataCopies, o.DataCopies)
	f(&s.Delivered, o.Delivered)
	f(&s.DataDelivered, o.DataDelivered)
	f(&s.HopLimitDrops, o.HopLimitDrops)
	f(&s.NoRouteDrops, o.NoRouteDrops)
	f(&s.Consumed, o.Consumed)
	f(&s.DataConsumed, o.DataConsumed)
	f(&s.LinkDownDrops, o.LinkDownDrops)
	f(&s.NodeDownDrops, o.NodeDownDrops)
	f(&s.AdvLossDrops, o.AdvLossDrops)
	f(&s.AdvDups, o.AdvDups)
	f(&s.DataDrops, o.DataDrops)
	f(&s.CodecDrops, o.CodecDrops)
	f(&s.SendErrors, o.SendErrors)
}

// Delta returns the counter differences s - prev, for windowed
// measurements over a running network.
func (s Stats) Delta(prev Stats) Stats {
	s.zip(&prev, func(a *int, b int) { *a -= b })
	return s
}

// Wire is the link step of the ladder, the one step the simulator and
// the live runtime take differently. The ladder has already charged the
// traversal (hop budget, counters, taps, the forward event) when it
// hands the envelope over.
type Wire interface {
	// Carry takes env, bound for adjacent node to (its arrival node),
	// over the link from→to, which the network charges delay units.
	// env is the wire's from here on: it makes the packet arrive (Queue,
	// then Envelope.Fire) or ends its life here (Envelope.Release). A
	// non-nil error is a frame the transport refused, counted in
	// SendErrors.
	Carry(from, to topology.NodeID, env *Envelope, delay eventsim.Time) error
	// Queue makes env arrive at node at after delay units: a
	// self-addressed send, re-processed in a fresh dispatch.
	Queue(at topology.NodeID, env *Envelope, delay eventsim.Time)
}

// simWire is the simulator's link step: the envelope rides the event
// queue by reference — nothing re-encodes the packet in transit — and
// the hop takes exactly the delay charged for it.
type simWire struct{ n *Network }

func (w simWire) Carry(_, _ topology.NodeID, env *Envelope, delay eventsim.Time) error {
	if o := w.n.obsv; o != nil {
		if lt := o.Latency(); lt != nil {
			lt.ObserveHop(float64(delay))
		}
	}
	w.n.sim.AfterCall(delay, env)
	return nil
}

func (w simWire) Queue(_ topology.NodeID, env *Envelope, delay eventsim.Time) {
	w.n.sim.AfterCall(delay, env)
}

// Network binds a topology, its unicast routing tables and a clock into
// a running packet network.
type Network struct {
	sim     *eventsim.Sim // nil on a wired network
	clk     clock.Clock
	wire    Wire
	topo    *topology.Graph
	routing unicast.Router
	nodes   []*Node

	taps    []Tap
	delTaps []DeliveryTap
	// obsv is the structured observability pipeline. nil means fully
	// disabled: every emission site nil-checks it before building any
	// event, which keeps the forwarding hot path allocation-free.
	obsv     *obs.Observer
	hopLimit int
	// adv is the installed control-plane adversary; nil (the default)
	// keeps the forwarding path byte-for-byte identical to a network
	// without one.
	adv *advState
	// nodeDown marks crashed nodes: they neither handle, forward nor
	// originate packets until brought back up (see SetNodeUp).
	nodeDown []bool
	// cut holds the links SetLinkUp took down, by normalised endpoints.
	cut map[[2]topology.NodeID]bool
	// shared is the shard of every node Host did not give one of its
	// own: in the simulator, all of them.
	shared shard
	hosted []*shard
}

// A shard is the state a dispatch step writes: the transport counters
// and the envelope pool. Causes are not part of it: they travel as
// values, with the packet and through the handlers. The simulator's
// nodes share one shard, on one goroutine. Each node of the live
// runtime owns its own, so nodes dispatching on goroutines of their own
// share nothing else; the counters are then written under mu, in one
// hold per step.
type shard struct {
	net *Network
	// mu is the emission lock a wired network writes its shared surface
	// (observer, taps, counters) under; nil in the simulator, which
	// takes no lock at all.
	mu    sync.Locker
	clk   clock.Clock
	stats Stats
	// free recycles envelopes so steady-state forwarding allocates
	// nothing: every terminal point of a packet's life (drop, consume,
	// deliver, a wire carrying it off) returns its envelope here. poolMu
	// guards it on a wired network, where another goroutine's receive
	// half takes from it.
	poolMu sync.Mutex
	free   []*Envelope
}

func (s *shard) lock() {
	if s.mu != nil {
		s.mu.Lock()
	}
}

func (s *shard) unlock() {
	if s.mu != nil {
		s.mu.Unlock()
	}
}

// Node is the per-vertex runtime state: the resident handlers, the
// local delivery sink and the shard its dispatch runs on. It is the
// only implementation of ProtoNode.
type Node struct {
	net      *Network
	s        *shard
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
	n := newNetwork(g, r, nil)
	n.sim, n.clk = sim, clock.Sim(sim)
	n.shared.clk = n.clk
	n.wire = simWire{n}
	return n
}

// NewWired builds a network that climbs the same ladder over the
// caller's link step w, on the caller's goroutines: the live runtime.
// Every dispatch step writes the shared surface — observer, taps,
// counters — under mu, and each node Host gives a shard of its own
// keeps its counters and envelopes there. The adversary is the
// simulator's alone.
func NewWired(g *topology.Graph, r unicast.Router, w Wire, mu *sync.Mutex) *Network {
	n := newNetwork(g, r, mu)
	n.wire = w
	return n
}

func newNetwork(g *topology.Graph, r unicast.Router, mu sync.Locker) *Network {
	if r.Graph() != g {
		panic("netsim: routing tables computed for a different graph")
	}
	n := &Network{topo: g, routing: r, hopLimit: DefaultHopLimit}
	n.shared = shard{net: n, mu: mu}
	n.nodes = make([]*Node, g.NumNodes())
	n.nodeDown = make([]bool, g.NumNodes())
	for _, nd := range g.Nodes() {
		n.nodes[nd.ID] = &Node{net: n, s: &n.shared, id: nd.ID, addr: nd.Addr, name: nd.Name}
	}
	return n
}

// Host gives node id a shard of its own, with clk as the node's clock
// (see NewWired). Engines read the clock when they attach, so Host
// comes first.
func (n *Network) Host(id topology.NodeID, clk clock.Clock) {
	s := &shard{net: n, mu: n.shared.mu, clk: clk}
	n.hosted = append(n.hosted, s)
	n.nodes[id].s = s
}

// Sim returns the event clock (nil on a wired network).
func (n *Network) Sim() *eventsim.Sim { return n.sim }

// Clock returns the simulator wrapped as an abstract clock.
func (n *Network) Clock() clock.Clock { return n.clk }

// Now returns the current virtual time.
func (n *Network) Now() eventsim.Time { return n.sim.Now() }

// Topology returns the underlying graph.
func (n *Network) Topology() *topology.Graph { return n.topo }

// Routing returns the unicast routing substrate.
func (n *Network) Routing() unicast.Router { return n.routing }

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

// SetLinkUp mends or cuts the link between a and b, both directions,
// under routing's feet: packets routed onto a cut link die there as at
// a disabled one, and no routing table hears of it. The graph's own
// SetLinkEnabled is the fault routing can recompute around; this one
// leaves the graph alone, so it also serves one that is frozen and
// shared (the live runtime's).
func (n *Network) SetLinkUp(a, b topology.NodeID, up bool) {
	k := linkKey(a, b)
	if up {
		delete(n.cut, k)
		return
	}
	if n.cut == nil {
		n.cut = make(map[[2]topology.NodeID]bool)
	}
	n.cut[k] = true
}

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// Node returns the runtime node for id.
func (n *Network) Node(id topology.NodeID) *Node { return n.nodes[id] }

// NodeByAddr returns the runtime node owning unicast address a.
func (n *Network) NodeByAddr(a addr.Addr) *Node {
	return n.nodes[n.topo.MustByAddr(a)]
}

// Stats returns a snapshot of the transport counters, summed over the
// shards.
func (n *Network) Stats() Stats {
	n.shared.lock()
	defer n.shared.unlock()
	st := n.shared.stats
	for _, s := range n.hosted {
		st.zip(&s.stats, func(a *int, b int) { *a += b })
	}
	return st
}

// ResetStats zeroes the transport counters. Experiments reset between
// the convergence phase and the measurement probe.
func (n *Network) ResetStats() {
	n.shared.lock()
	defer n.shared.unlock()
	n.shared.stats = Stats{}
	for _, s := range n.hosted {
		s.stats = Stats{}
	}
}

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

// SetHopLimit overrides the per-packet hop budget.
func (n *Network) SetHopLimit(l int) {
	if l < 1 {
		panic("netsim: hop limit must be positive")
	}
	n.hopLimit = l
}

// emit is the one place causal fields are stamped: ev becomes an effect
// of c — it joins c's episode with c's step as its parent — and takes a
// fresh step of its own. The pair returned names ev as the cause of
// whatever it leads to: the next hop, a send, a table entry. The caller
// has checked n.obsv and holds the shard lock.
func (n *Network) emit(c obs.Causal, ev *obs.Event) obs.Causal {
	ev.Episode, ev.ParentStep, ev.Step = c.Episode, c.Step, n.obsv.NewStep()
	n.obsv.EmitLocked(ev)
	return obs.Causal{Episode: c.Episode, Step: ev.Step}
}

// emitMsg emits one transport event for msg at nd as an effect of c (see
// emit). Callers must have checked n.obsv != nil first — this keeps
// argument construction (interface boxing, channel/seq extraction)
// entirely off the disabled path, where it used to dominate whole-run
// CPU profiles at >50% when done eagerly — and hold nd's shard lock.
func (n *Network) emitMsg(c obs.Causal, kind obs.Kind, cause obs.Cause, nd, peer *Node, msg packet.Message) obs.Causal {
	ev := obs.Event{
		Kind: kind, Cause: cause, Msg: msg, Channel: msg.Hdr().Channel,
		Node: nd.addr, NodeName: nd.name,
	}
	if peer != nil {
		ev.Peer, ev.PeerName = peer.addr, peer.name
	}
	if d, ok := msg.(*packet.Data); ok {
		ev.Seq = d.Seq
	}
	return n.emit(c, &ev)
}

// Root opens a fresh causal episode for a spontaneous action that
// belongs to no node (a fault injection, a central tree build) and
// returns its root pair (see Node.Root).
func (n *Network) Root() obs.Causal { return n.shared.root(n.obsv) }

// Emit emits ev, an event at no node (a fault), as an effect of c and
// returns ev's own pair (see Node.Emit).
func (n *Network) Emit(c obs.Causal, ev obs.Event) obs.Causal {
	if n.obsv == nil {
		return obs.Causal{}
	}
	n.shared.lock()
	c = n.emit(c, &ev)
	n.shared.unlock()
	return c
}

func (s *shard) root(o *obs.Observer) obs.Causal {
	if o == nil {
		return obs.Causal{}
	}
	s.lock()
	ep := o.NewEpisode()
	s.unlock()
	return obs.Causal{Episode: ep}
}

// NodeName returns the topology label of a node, for diagnostics.
func (n *Network) NodeName(id topology.NodeID) string { return n.nodes[id].name }

// ID returns the node's topology ID.
func (nd *Node) ID() topology.NodeID { return nd.id }

// Addr returns the node's unicast address.
func (nd *Node) Addr() addr.Addr { return nd.addr }

// Name returns the node's topology label.
func (nd *Node) Name() string { return nd.name }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// Clock returns the node's clock: the network's, unless Host gave the
// node one of its own (ProtoNode).
func (nd *Node) Clock() clock.Clock { return nd.s.clk }

// Topology returns the network's graph (ProtoNode).
func (nd *Node) Topology() *topology.Graph { return nd.net.topo }

// Routing returns the network's unicast substrate (ProtoNode).
func (nd *Node) Routing() unicast.Router { return nd.net.routing }

// Observer returns the attached observer, or nil (ProtoNode).
func (nd *Node) Observer() *obs.Observer { return nd.net.obsv }

// AddHandler registers a protocol handler on the node. Handlers run in
// registration order; the first Consumed verdict wins.
func (nd *Node) AddHandler(h Handler) { nd.handlers = append(nd.handlers, h) }

// Root opens a fresh causal episode for a spontaneous action at this
// node — a timer fired, an application joined or sent — and returns its
// root pair, the cause of the action's first event (ProtoNode). Every
// call allocates an episode, whether or not the action then emits
// anything. The zero pair when observation is off.
func (nd *Node) Root() obs.Causal { return nd.s.root(nd.net.obsv) }

// Emit emits ev at this node as an effect of c and returns ev's own
// causal pair, for the engine to pass on to what ev leads to: a send, a
// table entry's Cause, the next event (ProtoNode). The node names
// itself as ev's node, and ev's peer by its topology label unless ev
// names it already. A cheap no-op returning the zero pair when
// observation is off.
func (nd *Node) Emit(c obs.Causal, ev obs.Event) obs.Causal {
	n := nd.net
	if n.obsv == nil {
		return obs.Causal{}
	}
	ev.Node, ev.NodeName = nd.addr, nd.name
	if ev.PeerName == "" && ev.Peer != addr.Unspecified {
		if id, ok := n.topo.ByAddr(ev.Peer); ok {
			ev.PeerName = n.nodes[id].name
		}
	}
	nd.s.lock()
	c = n.emit(c, &ev)
	nd.s.unlock()
	return c
}

// SetDeliver installs the local delivery sink.
func (nd *Node) SetDeliver(d DeliverFunc) { nd.deliver = d }

// Envelope carries a packet in flight together with its hop budget.
// The decoded message travels by reference from hop to hop — nothing
// re-encodes it on the simulator's wire (zero-copy forwarding). The
// envelope doubles as the eventsim.Caller for its own next arrival, so
// a hop costs no closure or event allocation, and envelopes themselves
// recycle through their shard's pool, so steady-state forwarding
// allocates nothing at all.
type Envelope struct {
	msg packet.Message
	// data and ctl are the storage of the packet in flight: a sent data
	// packet, join, tree or fusion is copied into the one of its type and
	// msg points at the copy, so the packet lives and dies with its
	// envelope and an engine sends every message from one scratch value
	// it rewrites in between. A wire decodes a received packet into the
	// same storage (Data, Control). ctl is allocated the first time the
	// envelope carries a control message and kept from then on; buf is a
	// decoded data packet's payload storage (Load). Any other message
	// (IGMP's) travels in the value the sender built.
	data packet.Data
	ctl  *packet.Control
	buf  []byte
	hops int
	s    *shard          // the pool the envelope returns to, on its network
	to   topology.NodeID // arrival node of the in-flight transmission
	// dst is the node owning the packet's unicast destination address,
	// resolved once at send; topology.None when no node owns it.
	dst topology.NodeID
	// cause is the packet's causal pair: the episode it belongs to and
	// the step of its most recent transport event (send or last hop).
	cause obs.Causal

	// What a wire crossing clocks (the live runtime's frame wire) keeps
	// with the packet; the simulator's leaves it zero. OrigAt and HopAt
	// are the origination and last-hop stamps its frames carry, Timer
	// the envelope's place in its node's queue.
	OrigAt, HopAt int64
	Timer         clock.Handle
	// hop and age are what the wire measured as the packet arrived, owed
	// to the latency histograms while owed is set (Owe).
	hop, age float64
	owed     bool
}

// Fire delivers the in-flight transmission at its arrival node.
func (e *Envelope) Fire() { e.s.net.arrive(e.to, e) }

// Msg returns the packet the envelope carries.
func (e *Envelope) Msg() packet.Message { return e.msg }

// Hops returns the packet's remaining hop budget.
func (e *Envelope) Hops() int { return e.hops }

// Cause returns the packet's causal pair.
func (e *Envelope) Cause() obs.Causal { return e.cause }

// Data returns the envelope's data-packet storage, for a wire to decode
// a received data packet into before Load.
func (e *Envelope) Data() *packet.Data { return &e.data }

// Control returns the envelope's control-message storage, for a wire to
// decode a received join, tree or fusion into before Load.
func (e *Envelope) Control() *packet.Control {
	if e.ctl == nil {
		e.ctl = new(packet.Control)
	}
	return e.ctl
}

// hold copies msg into the envelope's storage of its type and returns
// the copy; a message of a type the envelope has no storage for is
// returned as it is.
func (e *Envelope) hold(msg packet.Message) packet.Message {
	switch m := msg.(type) {
	case *packet.Data:
		e.data = *m
		return &e.data
	case *packet.Join:
		c := e.Control()
		c.Join = *m
		return &c.Join
	case *packet.Tree:
		c := e.Control()
		c.Tree = *m
		return &c.Tree
	case *packet.Fusion:
		c := e.Control()
		rs := append(c.Fusion.Rs[:0], m.Rs...)
		c.Fusion = *m
		c.Fusion.Rs = rs
		return &c.Fusion
	}
	return msg
}

// Envelope takes an envelope from nd's pool for a packet a wire is
// bringing to nd. The receive half fills it (Data, Load) and queues it
// on nd's clock, or gives it back (Reject).
func (nd *Node) Envelope() *Envelope {
	e := nd.net.take(nd.s)
	e.to = nd.id
	return e
}

// Load arms a received envelope with msg, hops of budget left and its
// causal pair. A data packet decoded into Data moves its payload into
// the envelope's own bytes, so the buffer it was decoded from is the
// wire's again when Load returns; a control message decoded into
// Control aliases nothing.
func (e *Envelope) Load(msg packet.Message, hops int, cause obs.Causal) {
	if msg == packet.Message(&e.data) {
		e.buf = append(e.buf[:0], e.data.Payload...)
		e.data.Payload = e.buf
	}
	e.msg, e.hops, e.cause = msg, hops, cause
	e.dst = topology.None
	if id, ok := e.s.net.topo.ByAddr(msg.Hdr().Dst); ok {
		e.dst = id
	}
}

// Owe records the hop delay and the packet's age a wire measured as the
// packet arrived. The step the arrival ends in records the hop delay,
// and the age too when that step delivers a data packet, in the one
// hold it takes anyway.
func (e *Envelope) Owe(hop, age float64) { e.hop, e.age, e.owed = hop, age, true }

// Reject gives back an envelope whose frame did not decode, or came
// from no neighbour, counted in CodecDrops.
func (e *Envelope) Reject() {
	e.s.lock()
	e.s.stats.CodecDrops++
	e.s.unlock()
	e.Release()
}

// Release returns an envelope whose packet's life here ended (dropped,
// consumed, delivered, carried off by a wire) to its pool. The message
// and payload references are cleared so the pool never pins packets —
// what ctl holds is the envelope's own, and its fusion keeps only the
// capacity of its targets; each envelope is referenced from exactly one
// place at a time, so every terminal branch releases exactly once.
func (e *Envelope) Release() {
	e.msg = nil
	e.data.Payload = nil
	if e.ctl != nil {
		e.ctl.Fusion.Rs = e.ctl.Fusion.Rs[:0]
	}
	e.cause = obs.Causal{}
	e.OrigAt, e.HopAt, e.owed = 0, 0, false
	s := e.s
	if s.mu == nil {
		s.free = append(s.free, e)
		return
	}
	s.poolMu.Lock()
	s.free = append(s.free, e)
	s.poolMu.Unlock()
}

// take pops an envelope from s's pool, or allocates one.
func (n *Network) take(s *shard) *Envelope {
	if s.mu != nil {
		s.poolMu.Lock()
	}
	var e *Envelope
	if k := len(s.free); k > 0 {
		e = s.free[k-1]
		s.free = s.free[:k-1]
	}
	if s.mu != nil {
		s.poolMu.Unlock()
	}
	if e == nil {
		e = &Envelope{s: s}
	}
	return e
}

// newEnvelope takes an envelope from s's pool, loads a copy of msg
// bound for node dst (hold) and arms it with a full hop budget.
func (n *Network) newEnvelope(s *shard, msg packet.Message, dst topology.NodeID) *Envelope {
	env := n.take(s)
	env.msg = env.hold(msg)
	env.dst = dst
	env.hops = n.hopLimit
	return env
}

// begin opens a dispatch step's one hold on the shared surface (no lock
// in the simulator) and records what a wire measured for env's arrival,
// if anything is owed: the hop delay, and the packet's age when the step
// delivers it.
func (n *Network) begin(s *shard, env *Envelope, delivered bool) {
	if s.mu != nil { // only a wired network's envelopes owe anything
		n.beginWired(s, env, delivered)
	}
}

func (n *Network) beginWired(s *shard, env *Envelope, delivered bool) {
	s.mu.Lock()
	if env != nil && env.owed {
		env.owed = false
		lt := n.obsv.Latency()
		lt.ObserveHop(env.hop)
		if delivered {
			lt.ObserveDelivery(env.age)
		}
	}
}

// SendUnicast originates msg at this node and forwards it hop by hop
// toward msg.Hdr().Dst using the unicast tables: a spontaneous send,
// rooting a causal episode of its own (Send with the zero pair). The
// packet is processed by handlers at every intermediate node. Sending to
// oneself delivers locally after handler processing, with no link
// traversal.
func (nd *Node) SendUnicast(msg packet.Message) { nd.send(obs.Causal{}, topology.None, msg) }

// Send originates msg at this node as an effect of c, routed as by
// SendUnicast (ProtoNode).
func (nd *Node) Send(c obs.Causal, msg packet.Message) { nd.send(c, topology.None, msg) }

// SendDirect transmits msg over the single link to adjacent node to,
// regardless of msg's destination address, as an effect of c. Protocol
// handlers use this to source-route copies over an explicitly
// constructed tree (PIM's native multicast forwarding).
func (nd *Node) SendDirect(c obs.Causal, to topology.NodeID, msg packet.Message) {
	nd.send(c, to, msg)
}

// send opens one origination as an effect of c: over the link to via,
// or routed when via is topology.None. Begun outside any causal episode
// (a timer fired, nothing arrived), the send roots one of its own, which
// the packet then carries.
func (nd *Node) send(c obs.Causal, via topology.NodeID, msg packet.Message) {
	n, s := nd.net, nd.s
	if c.Episode == 0 && n.obsv != nil {
		c = nd.Root()
	}
	var peer *Node
	kind := obs.KindSend
	if via != topology.None {
		if !n.topo.HasLink(nd.id, via) {
			panic(fmt.Sprintf("netsim: SendDirect %s -> %s without a link",
				nd.name, n.nodes[via].name))
		}
		peer, kind = n.nodes[via], obs.KindSendDirect
	}
	if n.nodeDown[nd.id] {
		// A crashed node originates nothing; its agents' timers may
		// still fire, but whatever they emit dies here.
		n.drop(nd, nil, nil, msg, c, &s.stats.NodeDownDrops, obs.CauseNodeDown)
		return
	}
	h := msg.Hdr()
	if peer == nil && !h.Dst.IsUnicast() {
		n.drop(nd, nil, nil, msg, c, &s.stats.NoRouteDrops, obs.CauseNonUnicast)
		return
	}
	var sent obs.Causal
	if n.obsv != nil {
		s.lock()
		sent = n.emitMsg(c, kind, obs.CauseNone, nd, peer, msg)
		s.unlock()
	}
	dst, ok := n.topo.ByAddr(h.Dst)
	if !ok {
		if peer == nil {
			n.drop(nd, nil, nil, msg, c, &s.stats.NoRouteDrops, obs.CauseNoRoute)
			return
		}
		dst = topology.None // native multicast, or nobody's address
	}
	env := n.newEnvelope(s, msg, dst)
	env.cause = sent
	switch {
	case peer != nil:
		n.transmit(nd.id, via, env)
	case dst == nd.id:
		// Local: process immediately in a fresh event for causal order.
		env.to = nd.id
		n.wire.Queue(nd.id, env, 0)
	default:
		n.forward(nd.id, env)
	}
}

// drop ends msg's life at nd as an effect of c, counted in *ctr (and in
// DataDrops when it is data): in flight, c is the packet's own pair and
// env its envelope, released here; at its origin, env is nil and c the
// sender's. peer is the far end of the link it died on, if any.
func (n *Network) drop(nd, peer *Node, env *Envelope, msg packet.Message, c obs.Causal, ctr *int, cause obs.Cause) {
	s := nd.s
	n.begin(s, env, false)
	*ctr++
	if _, isData := msg.(*packet.Data); isData {
		s.stats.DataDrops++
	}
	if n.obsv != nil {
		n.emitMsg(c, obs.KindDrop, cause, nd, peer, msg)
	}
	s.unlock()
	if env != nil {
		env.Release()
	}
}

// forward routes env one hop closer to its destination: one routing
// query, whose topology.None answer (from is never the destination
// here) means unreachable.
func (n *Network) forward(from topology.NodeID, env *Envelope) {
	next := topology.None
	if env.dst != topology.None {
		next = n.routing.NextHop(from, env.dst)
	}
	if next == topology.None {
		nd := n.nodes[from]
		n.drop(nd, nil, env, env.msg, env.cause, &nd.s.stats.NoRouteDrops, obs.CauseNoRoute)
		return
	}
	n.transmit(from, next, env)
}

// transmit moves env over the link from->to, charging the directed
// link cost as delay and decrementing the hop budget, and hands it to
// the wire.
func (n *Network) transmit(from, to topology.NodeID, env *Envelope) {
	nd := n.nodes[from]
	st := &nd.s.stats
	if env.hops <= 0 {
		n.drop(nd, nil, env, env.msg, env.cause, &st.HopLimitDrops, obs.CauseHopLimit)
		return
	}
	env.hops--
	if !n.topo.LinkEnabled(from, to) || len(n.cut) > 0 && n.cut[linkKey(from, to)] {
		// The link is administratively down (fault injection). Packets
		// already routed onto it die here, exactly like frames on a cut
		// wire; the stale routing that chose it is the unicast layer's
		// problem until Recompute converges it.
		n.drop(nd, n.nodes[to], env, env.msg, env.cause, &st.LinkDownDrops, obs.CauseLinkDown)
		return
	}
	cost := n.topo.Cost(from, to)
	if cost == 0 {
		panic(fmt.Sprintf("netsim: transmit over missing link %d->%d", from, to))
	}
	_, isData := env.msg.(*packet.Data)
	// The control-plane adversary sits before the wire: it decides each
	// control traversal's fate (drop, jitter, duplicate) with seeded
	// draws. Data packets pass untouched.
	var advJitter, advDupJitter eventsim.Time
	advDup := false
	if n.adv != nil && !isData {
		drop, jit, dupJit, dup := n.adv.roll()
		if drop {
			n.drop(nd, n.nodes[to], env, env.msg, env.cause, &st.AdvLossDrops, obs.CauseAdvLoss)
			return
		}
		advJitter, advDupJitter, advDup = jit, dupJit, dup
	}
	n.begin(nd.s, env, false)
	st.Transmissions++
	if isData {
		st.DataCopies++
	}
	for _, tap := range n.taps {
		tap(from, to, env.msg)
	}
	if n.obsv != nil {
		env.cause = n.emitMsg(env.cause, obs.KindForward, obs.CauseNone, nd, n.nodes[to], env.msg)
	}
	nd.s.unlock()
	env.to = to
	if advDup {
		n.duplicate(from, to, env, eventsim.Time(cost)+advDupJitter)
	}
	if err := n.wire.Carry(from, to, env, eventsim.Time(cost)+advJitter); err != nil {
		nd.s.lock()
		st.SendErrors++
		nd.s.unlock()
	}
}

// arrive processes env at node v: handlers first, then local delivery
// or onward forwarding.
func (n *Network) arrive(v topology.NodeID, env *Envelope) {
	nd := n.nodes[v]
	s := nd.s
	if n.nodeDown[v] {
		// A crashed node handles nothing: no interception, no
		// forwarding, no delivery.
		n.drop(nd, nil, env, env.msg, env.cause, &s.stats.NodeDownDrops, obs.CauseNodeDown)
		return
	}
	_, isData := env.msg.(*packet.Data)
	for _, h := range nd.handlers {
		if h.Handle(nd, env.msg, env.cause) == Consumed {
			n.begin(s, env, isData)
			s.stats.Consumed++
			if isData {
				s.stats.DataConsumed++
			}
			if n.obsv != nil {
				n.emitMsg(env.cause, obs.KindConsume, obs.CauseNone, nd, nil, env.msg)
			}
			for _, t := range n.delTaps {
				t(v, env.msg, true)
			}
			s.unlock()
			env.Release()
			return
		}
	}
	hdr := env.msg.Hdr()
	if hdr.Dst == nd.addr {
		n.begin(s, env, isData)
		s.stats.Delivered++
		if isData {
			s.stats.DataDelivered++
		}
		if n.obsv != nil {
			n.emitMsg(env.cause, obs.KindDeliver, obs.CauseNone, nd, nil, env.msg)
		}
		for _, t := range n.delTaps {
			t(v, env.msg, false)
		}
		s.unlock()
		// The sink runs outside the hold: it is the application's.
		if nd.deliver != nil {
			nd.deliver(nd, env.msg)
		}
		env.Release()
		return
	}
	if !hdr.Dst.IsUnicast() {
		// Undeliverable multicast destination: only handlers can
		// forward those, and none claimed it.
		n.drop(nd, nil, env, env.msg, env.cause, &s.stats.NoRouteDrops, obs.CauseUnclaimedMulticast)
		return
	}
	n.forward(v, env)
}
