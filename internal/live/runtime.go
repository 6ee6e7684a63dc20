package live

import (
	"fmt"
	"sync"
	"time"

	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Mode selects how the runtime executes.
type Mode int

const (
	// SimMode runs every node inside one shared discrete-event
	// simulator: single-threaded, virtual time, deterministic. The
	// transport still frames and unmarshals every hop, so the wire
	// path is exercised, but execution is bit-reproducible — this is
	// the mode the equivalence tests compare against netsim.
	SimMode Mode = iota
	// RealMode runs one goroutine per hosted node against the wall
	// clock: each drains its own due-ordered queue of frame arrivals and
	// soft-state timers, so engines stay serialised per node while
	// transports deliver concurrently.
	RealMode
)

// Config parameterises a runtime.
type Config struct {
	Graph   *topology.Graph
	Routing unicast.Router

	// Sim selects SimMode when non-nil: all nodes share this
	// simulator as their clock and event loop.
	Sim *eventsim.Sim

	// Unit is RealMode's wall duration of one virtual time unit
	// (default 1ms). Protocol constants are in units, so this knob
	// scales the whole control plane's real-time speed.
	Unit time.Duration

	// Hosted lists the nodes this runtime instantiates engines and
	// goroutines for. nil hosts the whole graph (in-process cluster);
	// a daemon hosts one router plus its attached hosts.
	Hosted []topology.NodeID

	// HopLimit is the per-packet hop budget (default
	// netsim.DefaultHopLimit). It travels in one byte of the frame: at
	// most 255.
	HopLimit int
}

// Stats counts runtime-level packet events, mirroring the netsim
// counters the experiments read. Snapshot via Runtime.Stats.
type Stats struct {
	Transmissions int
	DataCopies    int
	Delivered     int
	DataDelivered int
	Consumed      int
	DataConsumed  int
	HopLimitDrops int
	NoRouteDrops  int
	LinkDownDrops int
	NodeDownDrops int
	CodecDrops    int
	// SendErrors counts frames the transport refused (a closed socket,
	// an address-book miss): the frame is lost, the error is not.
	SendErrors int
}

// Runtime hosts live protocol engines over a transport. Construct
// with New, attach engines to rt.Node(id) (same Attach* calls as
// netsim), install a transport (or let Start default to in-process),
// then Start. In RealMode all post-Start engine access must go
// through Do or Quiesce.
type Runtime struct {
	mode     Mode
	g        *topology.Graph
	routing  unicast.Router
	sim      *eventsim.Sim
	unit     time.Duration
	start    time.Time
	wall     *clock.Real // RealMode ambient clock (Now for stamping)
	hopLimit int

	nodes  []*Node // by NodeID; nil when not hosted
	trans  Transport
	hosted []topology.NodeID

	// worldMu is RealMode's stop-the-world barrier: everything a node
	// goroutine dispatches runs under RLock, Quiesce takes the write lock.
	worldMu sync.RWMutex

	// emitMu serialises the shared observability surface (observer,
	// taps, stats) across node goroutines.
	emitMu  sync.Mutex
	obsv    *obs.Observer
	taps    []netsim.Tap
	delTaps []netsim.DeliveryTap
	stats   Stats

	// faultMu guards the runtime fault overlay. The shared graph is
	// frozen and never mutated here — faults are a runtime concept so
	// concurrent toggles stay race-free.
	faultMu  sync.RWMutex
	nodeDown map[topology.NodeID]bool
	linkDown map[[2]topology.NodeID]bool

	started bool
	stopped bool
}

// New builds a runtime over a frozen graph and its routing tables.
func New(cfg Config) *Runtime {
	if cfg.Routing.Graph() != cfg.Graph {
		panic("live: routing tables computed for a different graph")
	}
	rt := &Runtime{
		g:        cfg.Graph,
		routing:  cfg.Routing,
		sim:      cfg.Sim,
		unit:     cfg.Unit,
		hopLimit: cfg.HopLimit,
		nodeDown: make(map[topology.NodeID]bool),
		linkDown: make(map[[2]topology.NodeID]bool),
	}
	if rt.hopLimit == 0 {
		rt.hopLimit = netsim.DefaultHopLimit
	}
	if rt.hopLimit < 0 || rt.hopLimit > 255 {
		panic(fmt.Sprintf("live: hop limit %d does not fit the frame's one byte", rt.hopLimit))
	}
	if rt.sim != nil {
		rt.mode = SimMode
	} else {
		rt.mode = RealMode
		if rt.unit <= 0 {
			rt.unit = time.Millisecond
		}
		rt.start = time.Now()
		rt.wall = clock.NewRealAt(rt.start, rt.unit, nil)
	}
	hosted := cfg.Hosted
	if hosted == nil {
		for _, nd := range cfg.Graph.Nodes() {
			hosted = append(hosted, nd.ID)
		}
	}
	rt.hosted = hosted
	rt.nodes = make([]*Node, cfg.Graph.NumNodes())
	for _, id := range hosted {
		nd := cfg.Graph.Node(id)
		ln := &Node{rt: rt, id: id, addr: nd.Addr, name: nd.Name}
		if rt.mode == SimMode {
			ln.clk = clock.Sim(rt.sim)
		} else {
			ln.wake = make(chan struct{}, 1)
			ln.done = make(chan struct{})
			ln.real = clock.NewRealDriven(rt.start, rt.unit, ln.poke)
			ln.clk = ln.real
		}
		rt.nodes[id] = ln
	}
	return rt
}

// Mode reports the execution mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Node returns the hosted node, panicking on a non-hosted ID.
func (rt *Runtime) Node(id topology.NodeID) *Node {
	n := rt.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("live: node %d not hosted by this runtime", id))
	}
	return n
}

// Hosted returns the hosted node IDs.
func (rt *Runtime) Hosted() []topology.NodeID { return rt.hosted }

// SetTransport installs the transport. Must happen before Start.
func (rt *Runtime) SetTransport(t Transport) {
	if rt.started {
		panic("live: SetTransport after Start")
	}
	rt.trans = t
}

// Transport returns the installed transport.
func (rt *Runtime) Transport() Transport { return rt.trans }

// SetObserver attaches the observability pipeline, rebinding its
// clock to the runtime's. Emission from node goroutines is
// serialised internally.
func (rt *Runtime) SetObserver(o *obs.Observer) {
	rt.obsv = o
	if o != nil {
		o.SetNow(rt.Now)
		// Engine code (receiver spans, protocol annotations) emits into
		// the observer directly from node goroutines; sharing the
		// runtime's emission mutex serialises those paths with the
		// transport events and with telemetry scrapes.
		o.SetEmitLock(&rt.emitMu)
		if lt := o.Latency(); lt != nil {
			// The live runtime feeds delivery delays from frame
			// timestamps (cross-process capable); event pairing would
			// double-count them.
			lt.SetDirect(true)
		}
	}
}

// Observer returns the attached observer, or nil.
func (rt *Runtime) Observer() *obs.Observer { return rt.obsv }

// Topology returns the graph (invariant.Network).
func (rt *Runtime) Topology() *topology.Graph { return rt.g }

// Routing returns the unicast substrate (invariant.Network).
func (rt *Runtime) Routing() unicast.Router { return rt.routing }

// NodeName resolves a node's label (invariant.Network).
func (rt *Runtime) NodeName(id topology.NodeID) string { return rt.g.Node(id).Name }

// Now returns the current time in virtual units (invariant.Network).
func (rt *Runtime) Now() eventsim.Time {
	if rt.mode == SimMode {
		return rt.sim.Now()
	}
	return rt.wall.Now()
}

// stampNow returns the frame-timestamp clock: wall nanoseconds in
// RealMode (comparable across daemons whose wall clocks are roughly
// synchronised), virtual microseconds in SimMode (exact within one
// simulation). Frames carry these stamps so the receiving process can
// compute delivery and hop delays without a shared virtual clock.
func (rt *Runtime) stampNow() int64 {
	if rt.mode == SimMode {
		return int64(rt.sim.Now() * 1e6)
	}
	return time.Now().UnixNano()
}

// stampDelta converts a stamp difference to histogram units: seconds
// in RealMode, virtual units in SimMode.
func (rt *Runtime) stampDelta(from int64) float64 {
	d := rt.stampNow() - from
	if rt.mode == SimMode {
		return float64(d) / 1e6
	}
	return float64(d) / 1e9
}

// ObsLocked runs fn under the emission lock: the consistency boundary
// for reading the observer's registries (counters, histograms,
// convergence state) while node goroutines emit concurrently. The
// daemon's telemetry endpoints scrape through it.
func (rt *Runtime) ObsLocked(fn func()) {
	rt.emitMu.Lock()
	defer rt.emitMu.Unlock()
	fn()
}

// AddTap registers a link tap (invariant.Network). Taps run under the
// runtime's emission lock.
func (rt *Runtime) AddTap(t netsim.Tap) {
	rt.emitMu.Lock()
	rt.taps = append(rt.taps, t)
	rt.emitMu.Unlock()
}

// AddDeliveryTap registers a delivery tap (invariant.Network).
func (rt *Runtime) AddDeliveryTap(t netsim.DeliveryTap) {
	rt.emitMu.Lock()
	rt.delTaps = append(rt.delTaps, t)
	rt.emitMu.Unlock()
}

// Stats snapshots the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.emitMu.Lock()
	defer rt.emitMu.Unlock()
	return rt.stats
}

// SetNodeUp marks a hosted-or-remote node up or down in the runtime
// fault overlay (safe to call concurrently).
func (rt *Runtime) SetNodeUp(id topology.NodeID, up bool) {
	rt.faultMu.Lock()
	if up {
		delete(rt.nodeDown, id)
	} else {
		rt.nodeDown[id] = true
	}
	rt.faultMu.Unlock()
}

// SetLinkUp enables or disables the directed link pair (both
// directions) in the runtime fault overlay.
func (rt *Runtime) SetLinkUp(a, b topology.NodeID, up bool) {
	rt.faultMu.Lock()
	if up {
		delete(rt.linkDown, [2]topology.NodeID{a, b})
		delete(rt.linkDown, [2]topology.NodeID{b, a})
	} else {
		rt.linkDown[[2]topology.NodeID{a, b}] = true
		rt.linkDown[[2]topology.NodeID{b, a}] = true
	}
	rt.faultMu.Unlock()
}

func (rt *Runtime) isNodeDown(id topology.NodeID) bool {
	rt.faultMu.RLock()
	down := rt.nodeDown[id]
	rt.faultMu.RUnlock()
	return down
}

func (rt *Runtime) isLinkUp(a, b topology.NodeID) bool {
	if !rt.g.LinkEnabled(a, b) {
		return false
	}
	rt.faultMu.RLock()
	down := rt.linkDown[[2]topology.NodeID{a, b}]
	rt.faultMu.RUnlock()
	return !down
}

// Start launches the runtime: defaults the transport to in-process
// delivery and, in RealMode, spawns the node goroutines.
func (rt *Runtime) Start() {
	if rt.started {
		panic("live: Start twice")
	}
	rt.started = true
	if rt.trans == nil {
		rt.trans = inProcess{rt.HandleFrame}
	}
	if rt.mode == RealMode {
		for _, id := range rt.hosted {
			go rt.nodes[id].loop()
		}
	}
}

// Stop shuts the runtime down: transport first (no new arrivals), then
// every node goroutine runs the Do calls it already holds and exits.
// Arrivals and timers still queued are dropped with it: nothing fires
// after Stop returns.
func (rt *Runtime) Stop() {
	if !rt.started || rt.stopped {
		return
	}
	rt.stopped = true
	if rt.trans != nil {
		rt.trans.Close()
	}
	if rt.mode == RealMode {
		for _, id := range rt.hosted {
			rt.nodes[id].close()
		}
		for _, id := range rt.hosted {
			<-rt.nodes[id].done
		}
	}
}

// Do runs fn on node id's goroutine and waits for it. This is the
// only safe way to touch an engine after Start in RealMode (join a
// receiver, read a table). In SimMode fn runs inline. Calling Do from
// a node goroutine deadlocks — engines must not use it. After Stop the
// node goroutine is gone and Do returns without running fn.
func (rt *Runtime) Do(id topology.NodeID, fn func()) {
	nd := rt.Node(id)
	if rt.mode == SimMode || !rt.started {
		fn()
		return
	}
	done := make(chan struct{})
	if nd.post(func() {
		fn()
		close(done)
	}) {
		<-done
	}
}

// Quiesce stops the world — every node goroutine parked between
// dispatches — and runs fn. Structural invariant checks use it to see
// a consistent global cut. In SimMode fn just runs inline.
func (rt *Runtime) Quiesce(fn func()) {
	if rt.mode == SimMode || !rt.started {
		fn()
		return
	}
	rt.worldMu.Lock()
	defer rt.worldMu.Unlock()
	fn()
}

// HandleFrame ingests a frame addressed to hosted node to. Transports
// call it from their receive path; it copies the frame into an arrival
// envelope (frame is the caller's again when it returns) and queues the
// envelope on the destination, due one link cost from now, exactly as
// netsim charges cost on the wire. A frame that does not decode, or
// whose sender is not a neighbour of to, is counted in CodecDrops and
// goes no further: the sender field is the peer's word, and the link it
// names is what the arrival is charged for.
func (rt *Runtime) HandleFrame(to topology.NodeID, frame []byte) {
	nd := rt.nodes[to]
	if nd == nil {
		return // not hosted here; a misrouted or stale frame
	}
	a := nd.newArrival()
	fm, msg, err := decodeFrame(frame, &a.data)
	cost := 0
	if err == nil && fm.from >= 0 && int(fm.from) < len(rt.nodes) {
		cost = rt.g.Cost(fm.from, to)
	}
	if cost == 0 {
		nd.recycle(a)
		rt.emitMu.Lock()
		rt.stats.CodecDrops++
		rt.emitMu.Unlock()
		return
	}
	if msg == packet.Message(&a.data) {
		// The payload aliases the caller's frame: move it to the envelope's.
		a.buf = append(a.buf[:0], a.data.Payload...)
		a.data.Payload = a.buf
	}
	fm.wire = true
	a.fm, a.msg = fm, msg
	nd.schedule(a, eventsim.Time(cost))
}

// emitMsg emits one packet-level event, stamped with the acting node's
// ambient causal context, and returns the event's step (0 with no
// observer) so callers can chain a packet's in-flight causal pair to
// it — the mirror of netsim's emitMsg. Caller holds emitMu. A send that
// began outside any episode (nd.rootNext) roots one here, in the lock
// hold its first event already takes.
func (rt *Runtime) emitMsg(kind obs.Kind, cause obs.Cause, nd *Node, peer topology.NodeID, msg packet.Message) obs.StepID {
	o := rt.obsv
	if o == nil {
		return 0
	}
	if nd.rootNext {
		nd.rootNext = false
		nd.cur = obs.Causal{Episode: o.NewEpisode()}
	}
	ev := obs.Event{
		Kind: kind, Cause: cause, Msg: msg,
		Node: nd.addr, NodeName: nd.name, Channel: msg.Hdr().Channel,
		Episode: nd.cur.Episode, ParentStep: nd.cur.Step, Step: o.NewStep(),
	}
	if peer != topology.None {
		p := rt.g.Node(peer)
		ev.Peer, ev.PeerName = p.Addr, p.Name
	}
	if d, ok := msg.(*packet.Data); ok {
		ev.Seq = d.Seq
	}
	o.EmitLocked(ev)
	return ev.Step
}

// lockStep takes the emission lock for the dispatch step fm's packet is
// in, and settles the hop-delay sample arrive measured for it: every
// way a step can end — consume, deliver, drop, forward — touches the
// shared surface in this one hold. fm is nil for a packet dropped at its
// origin: it arrived on no frame.
func (rt *Runtime) lockStep(fm *frameMeta) {
	rt.emitMu.Lock()
	if fm != nil && fm.hopDue {
		fm.hopDue = false
		rt.obsv.Latency().ObserveHop(fm.hop)
	}
}

// drop ends a packet's step in a death: counted in *n and emitted.
func (rt *Runtime) drop(fm *frameMeta, n *int, cause obs.Cause, nd *Node, peer topology.NodeID, msg packet.Message) {
	rt.lockStep(fm)
	*n++
	rt.emitMsg(obs.KindDrop, cause, nd, peer, msg)
	rt.emitMu.Unlock()
}

// arrive processes msg at nd: handlers first, then local delivery or
// onward forwarding — the same decision ladder as netsim.arrive. The
// frame's causal pair becomes the node's ambient context for the
// dispatch (netsim's envelope.Fire does the same), so everything the
// packet causes here chains to the hop that delivered it — even when
// that hop ran in another process.
func (rt *Runtime) arrive(nd *Node, fm frameMeta, msg packet.Message) {
	prev := nd.cur
	nd.cur = fm.cause
	defer func() { nd.cur = prev }()
	if fm.wire && fm.hopAt != 0 && rt.obsv != nil && rt.obsv.Latency() != nil {
		// Measured now, recorded by the step's lockStep.
		fm.hop, fm.hopDue = rt.stampDelta(fm.hopAt), true
	}
	if rt.isNodeDown(nd.id) {
		rt.drop(&fm, &rt.stats.NodeDownDrops, obs.CauseNodeDown, nd, topology.None, msg)
		return
	}
	_, isData := msg.(*packet.Data)
	for _, h := range nd.handlers {
		if h.Handle(nd, msg) == netsim.Consumed {
			rt.lockStep(&fm)
			rt.stats.Consumed++
			if isData {
				rt.stats.DataConsumed++
				rt.observeDeliveryLocked(fm)
			}
			rt.emitMsg(obs.KindConsume, obs.CauseNone, nd, topology.None, msg)
			for _, t := range rt.delTaps {
				t(nd.id, msg, true)
			}
			rt.emitMu.Unlock()
			return
		}
	}
	hdr := msg.Hdr()
	if hdr.Dst == nd.addr {
		rt.lockStep(&fm)
		rt.stats.Delivered++
		if isData {
			rt.stats.DataDelivered++
			rt.observeDeliveryLocked(fm)
		}
		rt.emitMsg(obs.KindDeliver, obs.CauseNone, nd, topology.None, msg)
		rt.emitMu.Unlock()
		if nd.deliver != nil {
			nd.deliver(nd, msg)
		}
		rt.emitMu.Lock()
		for _, t := range rt.delTaps {
			t(nd.id, msg, false)
		}
		rt.emitMu.Unlock()
		return
	}
	if !hdr.Dst.IsUnicast() {
		rt.drop(&fm, &rt.stats.NoRouteDrops, obs.CauseUnclaimedMulticast, nd, topology.None, msg)
		return
	}
	rt.forward(nd, fm, msg)
}

// observeDeliveryLocked samples the end-to-end delivery delay of a
// data packet from its frame origination stamp. Caller holds emitMu.
func (rt *Runtime) observeDeliveryLocked(fm frameMeta) {
	if fm.origAt == 0 || rt.obsv == nil {
		return
	}
	if lt := rt.obsv.Latency(); lt != nil {
		lt.ObserveDelivery(rt.stampDelta(fm.origAt))
	}
}

// forward routes msg one hop toward its unicast destination.
func (rt *Runtime) forward(nd *Node, fm frameMeta, msg packet.Message) {
	dst, ok := rt.g.ByAddr(msg.Hdr().Dst)
	if !ok || !rt.routing.Reachable(nd.id, dst) {
		rt.drop(&fm, &rt.stats.NoRouteDrops, obs.CauseNoRoute, nd, topology.None, msg)
		return
	}
	next := rt.routing.NextHop(nd.id, dst)
	rt.transmit(nd, next, fm, msg)
}

// transmit frames msg and hands it to the transport, charging one
// unit of hop budget. The packet is marshalled at every hop — the live
// runtime always exercises the real wire codec — into the sending
// node's one frame buffer, which is free again when Send returns. The
// outgoing frame carries the packet's causal pair — parented at this
// forward event, exactly as netsim's emitEnv advances the envelope's
// step — and a fresh last-hop timestamp.
func (rt *Runtime) transmit(nd *Node, to topology.NodeID, fm frameMeta, msg packet.Message) {
	if fm.ttl <= 0 {
		rt.drop(&fm, &rt.stats.HopLimitDrops, obs.CauseHopLimit, nd, topology.None, msg)
		return
	}
	fm.ttl--
	if !rt.isLinkUp(nd.id, to) {
		rt.drop(&fm, &rt.stats.LinkDownDrops, obs.CauseLinkDown, nd, to, msg)
		return
	}
	if rt.g.Cost(nd.id, to) == 0 {
		panic(fmt.Sprintf("live: transmit over missing link %d->%d", nd.id, to))
	}
	rt.lockStep(&fm)
	rt.stats.Transmissions++
	if _, isData := msg.(*packet.Data); isData {
		rt.stats.DataCopies++
	}
	for _, tap := range rt.taps {
		tap(nd.id, to, msg)
	}
	if rt.obsv != nil {
		// Emit under the frame's causal context (netsim's emitEnv swap)
		// and advance the frame's step to the forward event, so the next
		// hop — possibly in another process — chains to it.
		saved := nd.cur
		nd.cur = fm.cause
		fm.cause.Step = rt.emitMsg(obs.KindForward, obs.CauseNone, nd, to, msg)
		nd.cur = saved
	}
	rt.emitMu.Unlock()
	fm.from = nd.id
	fm.hopAt = rt.stampNow()
	frame, err := appendFrame(nd.wbuf[:0], fm, msg)
	if err != nil {
		panic(fmt.Sprintf("live: marshal on %d->%d: %v", nd.id, to, err))
	}
	nd.wbuf = frame
	if err := rt.trans.Send(nd.id, to, frame); err != nil {
		rt.emitMu.Lock()
		rt.stats.SendErrors++
		rt.emitMu.Unlock()
	}
}
