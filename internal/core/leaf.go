package core

import (
	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/igmp"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/softstate"
)

// LeafAgent turns IGMP-style local membership into HBH channel
// subscription: when the first local host reports membership in a
// channel, the border router joins the channel itself (its own unicast
// address is what appears in upstream MFTs), and data arriving for the
// channel is fanned out to the local member hosts over their access
// links. When the last local member expires, the router's subscription
// lapses by silence, exactly like a leaving receiver.
//
// This is the paper's aggregation argument made executable: "the
// presence of one or many receivers attached to a border router
// through IGMP does not influence the cost of the tree".
type LeafAgent struct {
	cfg     Config
	node    netsim.ProtoNode
	clk     clock.Clock
	querier *igmp.Querier
	router  *Router // nil when the router is not HBH-capable
	subs    map[addr.Channel]*leafSub
	join    packet.Join // every join is built here (softstate.SendJoin)
}

type leafSub struct {
	ticker *clock.Ticker
}

// AttachLeafAgent wires a LeafAgent to router node n. The querier must
// already be attached to the same node. Pass the node's HBH Router so
// data replication composes with downstream forwarding (nil if the
// node runs no HBH Router; the agent then claims channel data itself).
func AttachLeafAgent(n netsim.ProtoNode, q *igmp.Querier, r *Router, cfg Config) *LeafAgent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l := &LeafAgent{
		cfg:     cfg,
		node:    n,
		clk:     n.Clock(),
		querier: q,
		router:  r,
		subs:    make(map[addr.Channel]*leafSub),
	}
	q.SetListener(l)
	if r != nil {
		r.setLeaf(l)
	} else {
		n.AddHandler(l)
	}
	return l
}

// Subscribed reports whether the agent currently holds a subscription
// for ch.
func (l *LeafAgent) Subscribed(ch addr.Channel) bool { return l.subs[ch] != nil }

// FirstLocalMember implements igmp.MembershipListener: subscribe to
// the channel on behalf of the new local member, as an effect of its
// report's cause c. The refresh joins that follow root episodes of
// their own.
func (l *LeafAgent) FirstLocalMember(c obs.Causal, ch addr.Channel) {
	if l.subs[ch] != nil {
		return
	}
	sub := &leafSub{}
	l.subs[ch] = sub
	softstate.SendJoin(l.node, &l.join, c, packet.ProtoHBH, ch, true)
	sub.ticker = clock.NewTicker(l.clk, l.cfg.JoinInterval, func() {
		softstate.SendJoin(l.node, &l.join, obs.Causal{}, packet.ProtoHBH, ch, false)
	})
}

// LastLocalMemberGone implements igmp.MembershipListener: let the
// subscription lapse by stopping the join refresh.
func (l *LeafAgent) LastLocalMemberGone(ch addr.Channel) {
	sub := l.subs[ch]
	if sub == nil {
		return
	}
	sub.ticker.Stop()
	delete(l.subs, ch)
}

// deliverLocal fans a channel data packet out to the local member
// hosts, as an effect of its cause c. It reports whether any local
// delivery happened.
func (l *LeafAgent) deliverLocal(c obs.Causal, d *packet.Data) bool {
	if l.subs[d.Channel] == nil {
		return false
	}
	members := l.querier.Members(d.Channel)
	if len(members) == 0 {
		return false
	}
	g := l.node.Topology()
	for _, host := range members {
		cp := packet.Clone(d).(*packet.Data)
		cp.Src = l.node.Addr()
		cp.Dst = g.Node(host).Addr
		l.node.SendDirect(c, host, cp)
	}
	return true
}

// Handle implements netsim.Handler for leaf agents on routers without
// an HBH engine: claim channel data addressed to this router.
func (l *LeafAgent) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	d, ok := msg.(*packet.Data)
	if !ok || d.Dst != l.node.Addr() {
		return netsim.Continue
	}
	if l.deliverLocal(c, d) {
		return netsim.Consumed
	}
	return netsim.Continue
}
