package live

import (
	"fmt"
	"sync"
	"time"

	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Config parameterises a runtime.
type Config struct {
	Graph   *topology.Graph
	Routing unicast.Router

	// Sim, when non-nil, runs every node inside this one discrete-event
	// simulator: single-threaded, virtual time, deterministic — netsim's
	// network with the frame wire as its link step, which is what the
	// equivalence tests compare against the reference wire. nil runs one
	// goroutine per hosted node against the wall clock (RealMode).
	Sim *eventsim.Sim

	// Unit is RealMode's wall duration of one virtual time unit
	// (default 1ms). Protocol constants are in units, so this knob
	// scales the whole control plane's real-time speed.
	Unit time.Duration

	// Hosted lists the nodes this runtime instantiates engines and
	// goroutines for. nil hosts the whole graph (in-process cluster);
	// a daemon hosts one router plus its attached hosts.
	Hosted []topology.NodeID
}

// The per-packet hop budget, netsim.DefaultHopLimit, travels in one
// byte of the frame.
const _ uint8 = netsim.DefaultHopLimit

// Stats counts the runtime's packet events: netsim's counters, whose
// CodecDrops and SendErrors only a frame wire moves. Snapshot via
// Runtime.Stats.
type Stats = netsim.Stats

// Runtime hosts live protocol engines over a transport: a
// netsim.Network whose link step is the frame wire, each hosted node on
// a shard and a clock of its own. Construct with New, attach engines to
// rt.Node(id) (same Attach* calls as netsim), install a transport (or
// let Start default to in-process), then Start. In RealMode all
// post-Start engine access must go through Do or Quiesce.
type Runtime struct {
	net   *netsim.Network
	sim   *eventsim.Sim
	unit  time.Duration
	start time.Time

	hosts  []*host // by NodeID; nil when not hosted
	hosted []topology.NodeID
	trans  Transport

	// worldMu is RealMode's stop-the-world barrier: everything a node
	// goroutine dispatches runs under RLock, Quiesce takes the write lock.
	worldMu sync.RWMutex
	// emitMu serialises the shared observability surface (observer,
	// taps, counters) across node goroutines: every dispatch step holds
	// it once.
	emitMu sync.Mutex

	started bool
	stopped bool
}

// New builds a runtime over a frozen graph and its routing tables.
func New(cfg Config) *Runtime {
	rt := &Runtime{sim: cfg.Sim, unit: cfg.Unit}
	rt.net = netsim.NewWired(cfg.Graph, cfg.Routing, frameWire{rt}, &rt.emitMu)
	if rt.sim == nil {
		if rt.unit <= 0 {
			rt.unit = time.Millisecond
		}
		rt.start = time.Now()
	}
	rt.hosted = cfg.Hosted
	if rt.hosted == nil {
		for _, nd := range cfg.Graph.Nodes() {
			rt.hosted = append(rt.hosted, nd.ID)
		}
	}
	rt.hosts = make([]*host, cfg.Graph.NumNodes())
	for _, id := range rt.hosted {
		h := &host{}
		var clk clock.Clock
		if rt.sim != nil {
			clk = clock.Sim(rt.sim)
		} else {
			h.wake = make(chan struct{}, 1)
			h.done = make(chan struct{})
			h.real = clock.NewRealDriven(rt.start, rt.unit, h.poke)
			clk = h.real
		}
		rt.net.Host(id, clk)
		rt.hosts[id] = h
	}
	return rt
}

// Node returns the hosted node, panicking on a non-hosted ID.
func (rt *Runtime) Node(id topology.NodeID) *netsim.Node {
	if rt.hosts[id] == nil {
		panic(fmt.Sprintf("live: node %d not hosted by this runtime", id))
	}
	return rt.net.Node(id)
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

// SetObserver attaches the observability pipeline, rebinding its
// clock to the runtime's. Emission from node goroutines is
// serialised internally.
func (rt *Runtime) SetObserver(o *obs.Observer) {
	rt.net.SetObserver(o)
	if o != nil {
		o.SetNow(rt.Now)
		// Engine code (protocol annotations) emits into the observer
		// directly from node goroutines; sharing the runtime's emission
		// mutex serialises those paths with the transport events and
		// with telemetry scrapes.
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
func (rt *Runtime) Observer() *obs.Observer { return rt.net.Observer() }

// Topology returns the graph (invariant.Network).
func (rt *Runtime) Topology() *topology.Graph { return rt.net.Topology() }

// Routing returns the unicast substrate (invariant.Network).
func (rt *Runtime) Routing() unicast.Router { return rt.net.Routing() }

// NodeName resolves a node's label (invariant.Network).
func (rt *Runtime) NodeName(id topology.NodeID) string { return rt.net.NodeName(id) }

// Now returns the current time in virtual units (invariant.Network).
func (rt *Runtime) Now() eventsim.Time {
	if rt.sim != nil {
		return rt.sim.Now()
	}
	return eventsim.Time(float64(time.Since(rt.start)) / float64(rt.unit))
}

// stampNow returns the frame-timestamp clock: wall nanoseconds in
// RealMode (comparable across daemons whose wall clocks are roughly
// synchronised), virtual microseconds under the simulator (exact within
// one simulation). Frames carry these stamps so the receiving process
// can compute delivery and hop delays without a shared virtual clock.
func (rt *Runtime) stampNow() int64 {
	if rt.sim != nil {
		return int64(rt.sim.Now() * 1e6)
	}
	return time.Now().UnixNano()
}

// stampDelta converts the stamp difference now - from to histogram
// units: seconds in RealMode, virtual units under the simulator.
func (rt *Runtime) stampDelta(from, now int64) float64 {
	if rt.sim != nil {
		return float64(now-from) / 1e6
	}
	return float64(now-from) / 1e9
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
func (rt *Runtime) AddTap(t netsim.Tap) { rt.ObsLocked(func() { rt.net.AddTap(t) }) }

// AddDeliveryTap registers a delivery tap (invariant.Network).
func (rt *Runtime) AddDeliveryTap(t netsim.DeliveryTap) {
	rt.ObsLocked(func() { rt.net.AddDeliveryTap(t) })
}

// Stats snapshots the runtime counters (safe to call concurrently).
func (rt *Runtime) Stats() Stats { return rt.net.Stats() }

// SetNodeUp marks a hosted-or-remote node up or down (safe to call
// concurrently: it stops the world to do it).
func (rt *Runtime) SetNodeUp(id topology.NodeID, up bool) {
	rt.Quiesce(func() { rt.net.SetNodeUp(id, up) })
}

// SetLinkUp mends or cuts the link between a and b, both directions
// (see netsim.Network.SetLinkUp; safe to call concurrently).
func (rt *Runtime) SetLinkUp(a, b topology.NodeID, up bool) {
	rt.Quiesce(func() { rt.net.SetLinkUp(a, b, up) })
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
	if rt.sim == nil {
		for _, id := range rt.hosted {
			go rt.hosts[id].loop(&rt.worldMu)
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
	if rt.sim == nil {
		for _, id := range rt.hosted {
			rt.hosts[id].close()
		}
		for _, id := range rt.hosted {
			<-rt.hosts[id].done
		}
	}
}

// Do runs fn on node id's goroutine and waits for it. This is the
// only safe way to touch an engine after Start in RealMode (join a
// receiver, read a table). Under the simulator fn runs inline. Calling
// Do from a node goroutine deadlocks — engines must not use it. After
// Stop the node goroutine is gone and Do returns without running fn.
func (rt *Runtime) Do(id topology.NodeID, fn func()) {
	rt.Node(id) // panics on a node not hosted here
	if rt.sim != nil || !rt.started {
		fn()
		return
	}
	rt.hosts[id].do(fn)
}

// Quiesce stops the world — every node goroutine parked between
// dispatches — and runs fn. Structural invariant checks use it to see
// a consistent global cut. Under the simulator fn just runs inline.
func (rt *Runtime) Quiesce(fn func()) {
	if rt.sim != nil || !rt.started {
		fn()
		return
	}
	rt.worldMu.Lock()
	defer rt.worldMu.Unlock()
	fn()
}

// HandleFrame ingests a frame addressed to hosted node to: the receive
// half of the frame wire. Transports call it from their receive path;
// it decodes the frame into an envelope of to's (frame is the caller's
// again when it returns) and queues the envelope on to's clock, due one
// link cost from now, exactly as the simulator charges cost on its
// wire. A frame that does not decode, or whose sender is not a
// neighbour of to, is counted in CodecDrops and goes no further: the
// sender field is the peer's word, and the link it names is what the
// arrival is charged for.
func (rt *Runtime) HandleFrame(to topology.NodeID, frame []byte) {
	if rt.hosts[to] == nil {
		return // not hosted here; a misrouted or stale frame
	}
	env := rt.net.Node(to).Envelope()
	fm, msg, err := decodeFrame(frame, env.Data(), env.Control())
	cost := 0
	if g := rt.net.Topology(); err == nil && fm.from >= 0 && int(fm.from) < g.NumNodes() {
		cost = g.Cost(fm.from, to)
	}
	if cost == 0 {
		env.Reject()
		return
	}
	env.Load(msg, fm.ttl, fm.cause)
	env.OrigAt, env.HopAt = fm.origAt, fm.hopAt
	frameWire{rt}.Queue(to, env, eventsim.Time(cost))
}

// frameWire is the runtime's link step: the packet is framed into the
// sender's buffer and handed to the transport, whose far end hands it
// to HandleFrame.
type frameWire struct{ rt *Runtime }

// Carry frames env's packet with its hop budget, causal pair and
// stamps, and sends it. The frame's causal step is the forward event
// the ladder just emitted; its origination stamp is this hop's when the
// packet is starting out. The envelope's life here ends with the frame.
func (w frameWire) Carry(from, to topology.NodeID, env *netsim.Envelope, _ eventsim.Time) error {
	rt := w.rt
	h := rt.hosts[from]
	now := rt.stampNow()
	fm := frameMeta{from: from, ttl: env.Hops(), cause: env.Cause(), origAt: env.OrigAt, hopAt: now}
	if fm.origAt == 0 {
		fm.origAt = now
	}
	frame, err := appendFrame(h.wbuf[:0], fm, env.Msg())
	if err != nil {
		panic(fmt.Sprintf("live: marshal on %d->%d: %v", from, to, err))
	}
	h.wbuf = frame
	env.Release()
	return rt.trans.Send(from, to, frame)
}

// Queue arms env's timer on node at's clock: the envelope's place in
// the node's queue in RealMode, an event under the simulator.
func (w frameWire) Queue(at topology.NodeID, env *netsim.Envelope, delay eventsim.Time) {
	if env.Timer == nil {
		fire := func() { w.rt.dispatch(env) }
		if w.rt.sim != nil {
			env.Timer = w.rt.sim.After(delay, fire)
			return
		}
		// Set before it is armed: the arrival may run, and the envelope
		// be reused, on at's goroutine as soon as it is.
		env.Timer = w.rt.hosts[at].real.NewHandle(fire)
	}
	env.Timer.Reset(delay)
}

// dispatch fires env at its node, first measuring, for a frame that
// crossed the transport, its hop delay and age from the frame's stamps
// when a latency tracker wants them.
func (rt *Runtime) dispatch(env *netsim.Envelope) {
	if o := rt.net.Observer(); env.HopAt != 0 && o != nil && o.Latency() != nil {
		now := rt.stampNow()
		env.Owe(rt.stampDelta(env.HopAt, now), rt.stampDelta(env.OrigAt, now))
	}
	env.Fire()
}
