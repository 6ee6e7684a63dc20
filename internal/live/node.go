package live

import (
	"fmt"
	"sync"
	"time"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Node is the live implementation of netsim.ProtoNode: the locus a
// protocol engine runs at inside a Runtime. In RealMode every method
// that touches engine state must execute on the node's goroutine
// (from a handler, a timer callback, or Runtime.Do); the causal
// context is node-local for the same reason.
type Node struct {
	rt   *Runtime
	id   topology.NodeID
	addr addr.Addr
	name string
	clk  clock.Clock

	// RealMode only. real is clk as what it is to the node's goroutine:
	// the one due-ordered queue of everything the node waits for — frame
	// arrivals and the engines' timers alike — which loop drains.
	real *clock.Real
	// wake holds one token: a Do was posted, the node was closed, or
	// something was queued for earlier than loop is sleeping until.
	wake chan struct{}
	done chan struct{} // closed when loop has returned

	mu     sync.Mutex
	inbox  []func()   // Do calls posted and not yet taken by loop
	free   []*arrival // envelopes between two packets (either mode)
	closed bool

	// wbuf is the frame being sent: transmit builds every frame of this
	// node in it, on the node's goroutine.
	wbuf []byte

	handlers []netsim.Handler
	deliver  netsim.DeliverFunc
	cur      obs.Causal
	// rootNext asks the next packet event this node emits to root a
	// fresh causal episode first (Runtime.emitMsg): set for the length
	// of a send that began outside any episode.
	rootNext bool
}

// ID implements netsim.ProtoNode.
func (nd *Node) ID() topology.NodeID { return nd.id }

// Addr implements netsim.ProtoNode.
func (nd *Node) Addr() addr.Addr { return nd.addr }

// Name implements netsim.ProtoNode.
func (nd *Node) Name() string { return nd.name }

// Clock implements netsim.ProtoNode.
func (nd *Node) Clock() clock.Clock { return nd.clk }

// Topology implements netsim.ProtoNode.
func (nd *Node) Topology() *topology.Graph { return nd.rt.g }

// Routing implements netsim.ProtoNode.
func (nd *Node) Routing() unicast.Router { return nd.rt.routing }

// AddHandler implements netsim.ProtoNode.
func (nd *Node) AddHandler(h netsim.Handler) { nd.handlers = append(nd.handlers, h) }

// SetDeliver implements netsim.ProtoNode.
func (nd *Node) SetDeliver(d netsim.DeliverFunc) { nd.deliver = d }

// Observer implements netsim.ProtoNode.
func (nd *Node) Observer() *obs.Observer { return nd.rt.obsv }

// Observing implements netsim.ProtoNode.
func (nd *Node) Observing() bool { return nd.rt.obsv != nil }

// EmitProto implements netsim.ProtoNode: one protocol-level event,
// stamped with this node's ambient causal context, serialised across
// node goroutines by the runtime's emission lock.
func (nd *Node) EmitProto(kind obs.Kind, ch addr.Channel, peer addr.Addr, seq uint32, detail string) obs.Causal {
	o := nd.rt.obsv
	if o == nil {
		return obs.Causal{}
	}
	ev := obs.Event{
		Kind: kind, Node: nd.addr, NodeName: nd.name,
		Channel: ch, Peer: peer, Seq: seq, Detail: detail,
	}
	if peer != addr.Unspecified {
		if id, ok := nd.rt.g.ByAddr(peer); ok {
			ev.PeerName = nd.rt.g.Node(id).Name
		}
	}
	nd.rt.emitMu.Lock()
	ev.Episode = nd.cur.Episode
	ev.ParentStep = nd.cur.Step
	ev.Step = o.NewStep()
	o.EmitLocked(ev)
	nd.rt.emitMu.Unlock()
	return obs.Causal{Episode: ev.Episode, Step: ev.Step}
}

// CausalContext implements netsim.ProtoNode.
func (nd *Node) CausalContext() obs.Causal { return nd.cur }

// SetCausalContext implements netsim.ProtoNode.
func (nd *Node) SetCausalContext(c obs.Causal) { nd.cur = c }

// RootEpisode implements netsim.ProtoNode: roots a fresh causal
// episode when none is active, returning the previous context.
func (nd *Node) RootEpisode() obs.Causal {
	prev := nd.cur
	if nd.rt.obsv != nil && prev.Episode == 0 {
		nd.rt.emitMu.Lock()
		nd.cur = obs.Causal{Episode: nd.rt.obsv.NewEpisode()}
		nd.rt.emitMu.Unlock()
	}
	return prev
}

// StampCausal implements netsim.ProtoNode.
func (nd *Node) StampCausal(ev *obs.Event) {
	o := nd.rt.obsv
	if o == nil {
		return
	}
	nd.rt.emitMu.Lock()
	ev.Episode = nd.cur.Episode
	ev.ParentStep = nd.cur.Step
	ev.Step = o.NewStep()
	nd.cur.Step = ev.Step
	nd.rt.emitMu.Unlock()
}

// SendUnicast implements netsim.ProtoNode: originate msg here and
// route it hop by hop toward msg.Hdr().Dst. Self-addressed packets
// are re-processed in a fresh dispatch, as in netsim.
func (nd *Node) SendUnicast(msg packet.Message) {
	rooted := nd.beginSend()
	nd.sendUnicast(msg)
	nd.endSend(rooted)
}

// beginSend opens one origination. Begun outside any causal episode,
// the send gets one of its own: rooted by its first event (which every
// path through a send emits) and closed by endSend.
func (nd *Node) beginSend() (rooted bool) {
	nd.rootNext = nd.rt.obsv != nil && nd.cur.Episode == 0
	return nd.rootNext
}

func (nd *Node) endSend(rooted bool) {
	if rooted {
		nd.rootNext, nd.cur = false, obs.Causal{}
	}
}

// originated emits the send event that opens msg's life here and
// returns the in-flight metadata its frames carry: the causal pair
// parented at that event (netsim arms its envelopes the same way) and
// the origination timestamp the delivery-delay histogram measures from.
func (nd *Node) originated(kind obs.Kind, peer topology.NodeID, msg packet.Message) frameMeta {
	rt := nd.rt
	fm := frameMeta{from: nd.id, ttl: rt.hopLimit}
	if rt.obsv != nil {
		rt.emitMu.Lock()
		fm.cause.Step = rt.emitMsg(kind, obs.CauseNone, nd, peer, msg)
		rt.emitMu.Unlock()
	}
	fm.cause.Episode = nd.cur.Episode // after the event: it may have rooted one
	fm.origAt = rt.stampNow()
	return fm
}

func (nd *Node) sendUnicast(msg packet.Message) {
	rt := nd.rt
	h := msg.Hdr()
	if rt.isNodeDown(nd.id) {
		rt.drop(nil, &rt.stats.NodeDownDrops, obs.CauseNodeDown, nd, topology.None, msg)
		return
	}
	if !h.Dst.IsUnicast() {
		rt.drop(nil, &rt.stats.NoRouteDrops, obs.CauseNonUnicast, nd, topology.None, msg)
		return
	}
	fm := nd.originated(obs.KindSend, topology.None, msg)
	dst, ok := rt.g.ByAddr(h.Dst)
	if !ok {
		rt.drop(nil, &rt.stats.NoRouteDrops, obs.CauseNoRoute, nd, topology.None, msg)
		return
	}
	if dst == nd.id {
		// Local: re-process in a fresh dispatch for causal order. The
		// dispatch outlives this call and the sender may reuse msg once
		// it returns (every other path marshals before returning).
		a := nd.newArrival()
		a.fm, a.msg = fm, packet.Clone(msg)
		nd.schedule(a, 0)
		return
	}
	rt.forward(nd, fm, msg)
}

// SendDirect implements netsim.ProtoNode: push msg one hop to the
// adjacent node to, bypassing unicast routing.
func (nd *Node) SendDirect(to topology.NodeID, msg packet.Message) {
	rooted := nd.beginSend()
	nd.sendDirect(to, msg)
	nd.endSend(rooted)
}

func (nd *Node) sendDirect(to topology.NodeID, msg packet.Message) {
	rt := nd.rt
	if !rt.g.HasLink(nd.id, to) {
		panic(fmt.Sprintf("live: SendDirect %s -> %s without a link",
			nd.name, rt.g.Node(to).Name))
	}
	if rt.isNodeDown(nd.id) {
		rt.drop(nil, &rt.stats.NodeDownDrops, obs.CauseNodeDown, nd, topology.None, msg)
		return
	}
	rt.transmit(nd, to, nd.originated(obs.KindSendDirect, to, msg), msg)
}

// arrival is a packet on its way to a hosted node: the live mirror of
// netsim's envelope. HandleFrame fills one from a frame and queues it on
// the destination, due when the link's cost has passed; Fire dispatches
// it and returns it to the node's free list — the packet is valid for
// that call only, as netsim.Handler states. A data packet lives in the
// envelope's own storage, so in steady state a hop allocates nothing.
type arrival struct {
	nd   *Node
	fm   frameMeta
	msg  packet.Message
	data packet.Data // a data packet's storage: msg points here
	buf  []byte      // and its payload's
	// timer is the envelope's place in nd's queue (RealMode). Under the
	// simulated clock the envelope is the eventsim.Caller of its arrival.
	timer clock.Handle
}

// Fire dispatches the arrival on its node and releases the envelope.
func (a *arrival) Fire() {
	a.nd.rt.arrive(a.nd, a.fm, a.msg)
	a.nd.recycle(a)
}

// newArrival takes an envelope for a packet bound for nd (any goroutine).
func (nd *Node) newArrival() *arrival {
	nd.mu.Lock()
	var a *arrival
	if k := len(nd.free); k > 0 {
		a = nd.free[k-1]
		nd.free = nd.free[:k-1]
	}
	nd.mu.Unlock()
	if a == nil {
		a = &arrival{nd: nd}
		if nd.real != nil {
			a.timer = nd.real.NewHandle(a.Fire)
		}
	}
	return a
}

// recycle returns an envelope whose packet's life here has ended.
func (nd *Node) recycle(a *arrival) {
	a.msg = nil
	nd.mu.Lock()
	nd.free = append(nd.free, a)
	nd.mu.Unlock()
}

// schedule queues a to fire on nd delay units from now.
func (nd *Node) schedule(a *arrival, delay eventsim.Time) {
	if a.timer != nil {
		a.timer.Reset(delay)
	} else {
		nd.rt.sim.AfterCall(delay, a)
	}
}

// post hands fn to the node's goroutine; false when the node is closed.
func (nd *Node) post(fn func()) bool {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return false
	}
	nd.inbox = append(nd.inbox, fn)
	nd.mu.Unlock()
	nd.poke()
	return true
}

// poke leaves the wake token; one is enough for any number of causes.
func (nd *Node) poke() {
	select {
	case nd.wake <- struct{}{}:
	default:
	}
}

func (nd *Node) close() {
	nd.mu.Lock()
	nd.closed = true
	nd.mu.Unlock()
	nd.poke()
}

// dueBatch bounds how many due callbacks loop runs before it looks at
// its inbox again, so a backlog of arrivals cannot starve a Do.
const dueBatch = 16

// loop is the node's goroutine: a router's serialised execution
// context. It runs what was posted, then what is due in the queue, and
// sleeps until the next due instant on the one runtime timer the node
// holds, or until poked. Neither the queue nor the inbox is bounded —
// node A's dispatch queues arrivals on node B and vice versa, so a
// bound could deadlock the pair — and the inbox is double-buffered: it
// and batch trade places, so a stream of Do calls allocates no queue.
func (nd *Node) loop() {
	defer close(nd.done)
	rt := nd.rt
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	// timerDue is when timer will fire, zero when it is stopped or has
	// fired and been received: Reset needs the channel empty (go.mod's
	// go 1.22 keeps the timer channel buffered).
	var timerDue time.Time
	var batch []func()
	for {
		nd.mu.Lock()
		batch, nd.inbox = nd.inbox, batch[:0]
		closed := nd.closed
		nd.mu.Unlock()
		for i, fn := range batch {
			rt.worldMu.RLock()
			fn()
			rt.worldMu.RUnlock()
			batch[i] = nil
		}
		if closed {
			return
		}
		rt.worldMu.RLock()
		n := nd.real.RunDue(dueBatch)
		rt.worldMu.RUnlock()
		if n == dueBatch {
			continue
		}
		// A timer set for no later than due stands: at worst it wakes
		// loop early, for nothing.
		if due, ok := nd.real.NextDue(); ok && (timerDue.IsZero() || due.Before(timerDue)) {
			wait := time.Until(due)
			if wait <= 0 {
				continue
			}
			if !timerDue.IsZero() && !timer.Stop() {
				<-timer.C
			}
			timer.Reset(wait)
			timerDue = due
		}
		select {
		case <-nd.wake:
		case <-timer.C:
			timerDue = time.Time{}
		}
	}
}
