package live

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/clock"
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
	mbox *mailbox // RealMode only

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
		msg = packet.Clone(msg)
		nd.clk.After(0, func() { rt.arrive(nd, fm, msg) })
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
