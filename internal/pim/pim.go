// Package pim implements the two classical baselines of the paper's
// evaluation: PIM-SM-style shared trees and PIM-SS-style source trees
// (the tree structure of PIM-SSM).
//
// As in the paper — whose NS implementation of these protocols is
// centralised and explicitly so ("NS's implementation is centralized") —
// trees are computed from global knowledge rather than by message
// exchange, then installed as forwarding state in the simulator so
// that measurement happens through exactly the same probe pipeline as
// HBH and REUNITE:
//
//   - PIM-SS: a reverse shortest-path tree rooted at the source. Each
//     member is connected through the reverse of its unicast path
//     member -> source (the RPF rule), so under asymmetric routing the
//     delay is not minimised, but each link carries exactly one copy.
//
//   - PIM-SM: a shared tree centred on a rendezvous point (RP). Data
//     travels encapsulated in unicast from the source to the RP (this
//     leg IS delay-minimal) and then down the reverse shortest-path
//     tree from the RP to the members. The RP is the router minimising
//     the mean shared-tree delay to all potential receivers
//     (DelayOptimalRP), a deterministic stand-in for a well-configured
//     RP.
package pim

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Mode selects the tree flavour.
type Mode uint8

const (
	// SS builds a source-rooted reverse SPT (PIM-SSM structure).
	SS Mode = iota
	// SM builds an RP-centred shared tree with unicast encapsulation
	// from the source to the RP.
	SM
)

func (m Mode) String() string {
	switch m {
	case SS:
		return "PIM-SS"
	case SM:
		return "PIM-SM"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Session is an installed multicast tree for one channel: centralised
// forwarding state plus the source and member agents.
type Session struct {
	mode     Mode
	net      *netsim.Network
	ch       addr.Channel
	source   topology.NodeID // source host
	rp       topology.NodeID // RP router (SM only)
	rpAddr   addr.Addr
	children map[topology.NodeID][]topology.NodeID
	members  map[topology.NodeID]*Member
	nextSeq  uint32
}

// Member is the delivery-recording agent on a member host. It
// implements mtree.Member.
type Member struct {
	node       netsim.ProtoNode
	ch         addr.Channel
	clk        clock.Clock
	deliveries map[uint32][]eventsim.Time
}

// Addr returns the member's unicast address.
func (m *Member) Addr() addr.Addr { return m.node.Addr() }

// DeliveryAt returns the arrival time of the first copy of packet seq.
func (m *Member) DeliveryAt(seq uint32) (eventsim.Time, bool) {
	ds := m.deliveries[seq]
	if len(ds) == 0 {
		return 0, false
	}
	return ds[0], true
}

// DeliveryCount returns how many copies of packet seq arrived.
func (m *Member) DeliveryCount(seq uint32) int { return len(m.deliveries[seq]) }

// Handle implements netsim.Handler: record group data addressed here.
func (m *Member) Handle(n netsim.ProtoNode, msg packet.Message, _ obs.Causal) netsim.Verdict {
	d, ok := msg.(*packet.Data)
	if !ok || d.Channel != m.ch {
		return netsim.Continue
	}
	if d.Dst != m.ch.G && d.Dst != m.node.Addr() {
		return netsim.Continue
	}
	m.deliveries[d.Seq] = append(m.deliveries[d.Seq], m.clk.Now())
	return netsim.Consumed
}

// DelayOptimalRP returns the router minimising the mean shared-tree
// delay for the channel rooted at sourceHost over the population of
// potential receiver hosts: d(source -> RP) plus the reverse-path
// delay RP -> host. This models a rendezvous point configured well for
// the session, which is what the paper's PIM-SM-beats-PIM-SS delay
// observation on the ISP topology presumes. Ties go to the first
// router in ID order.
//
// A host's reverse-path delay from a candidate x is the forward cost
// of the links of its unicast path host -> x, traversed backwards. The
// paths to x form x's in-tree v -> NextHop(v, x), so the delays are
// memoised per candidate over that tree, rev[v] = rev[NextHop(v, x)] +
// Cost(NextHop(v, x), v), and each candidate costs O(nodes) rather than
// a path walk per host. The scratch is allocated once per call.
func DelayOptimalRP(rt unicast.Router, sourceHost topology.NodeID) topology.NodeID {
	g := rt.Graph()
	nodes := g.Nodes()
	rev := make([]int, len(nodes))
	chain := make([]topology.NodeID, 0, len(nodes))
	best, bestSum := topology.None, -1
	for _, cn := range nodes {
		if cn.Kind != topology.Router {
			continue
		}
		cand := cn.ID
		leg := rt.Dist(sourceHost, cand)
		if leg == unicast.Infinity {
			continue
		}
		for i := range rev {
			rev[i] = -1
		}
		rev[cand] = 0
		sum := 0
		for _, hn := range nodes {
			h := hn.ID
			if hn.Kind != topology.Host || h == sourceHost {
				continue
			}
			rd := revDelay(rt, cand, h, rev, chain)
			if rd == unicast.Infinity {
				sum = -1
				break
			}
			sum += leg + rd
		}
		if sum < 0 {
			continue
		}
		if best == topology.None || sum < bestSum {
			best, bestSum = cand, sum
		}
	}
	if best == topology.None {
		panic("pim: no reachable RP candidate")
	}
	return best
}

// revDelay returns h's reverse-path delay from x, filling rev (-1 where
// not yet known) for every node of h's path up to the first known one.
// chain is the walk's stack; its capacity of one slot per node means
// the walk never grows it.
func revDelay(rt unicast.Router, x, h topology.NodeID, rev []int, chain []topology.NodeID) int {
	if !rt.Reachable(h, x) {
		return unicast.Infinity
	}
	chain = chain[:0]
	v := h
	for rev[v] < 0 {
		chain = append(chain, v)
		v = rt.NextHop(v, x)
		if v == topology.None {
			panic(fmt.Sprintf("pim: broken table %d->%d", h, x))
		}
	}
	g := rt.Graph()
	for i := len(chain) - 1; i >= 0; i-- {
		rev[chain[i]] = rev[v] + g.Cost(v, chain[i])
		v = chain[i]
	}
	return rev[h]
}

// Build computes and installs the tree for the given member hosts.
// For SM mode, rp must be a router (DelayOptimalRP gives the default
// choice); SS ignores rp. Build registers one forwarding handler per
// tree node and one Member agent per member host, and returns the
// session ready for SendData.
func Build(net *netsim.Network, mode Mode, sourceHost topology.NodeID,
	group addr.Addr, memberHosts []topology.NodeID, rp topology.NodeID) *Session {
	g := net.Topology()
	r := net.Routing()
	if g.Node(sourceHost).Kind != topology.Host {
		panic("pim: source must be a host")
	}
	ch, err := addr.NewChannel(g.Node(sourceHost).Addr, group)
	if err != nil {
		panic(err)
	}
	s := &Session{
		mode:     mode,
		net:      net,
		ch:       ch,
		source:   sourceHost,
		children: make(map[topology.NodeID][]topology.NodeID),
		members:  make(map[topology.NodeID]*Member),
	}

	// The tree root: the source host for SS, the RP router for SM.
	root := sourceHost
	if mode == SM {
		if rp == topology.None {
			rp = DelayOptimalRP(r, sourceHost)
		}
		if g.Node(rp).Kind != topology.Router {
			panic("pim: RP must be a router")
		}
		s.rp = rp
		s.rpAddr = g.Node(rp).Addr
		root = rp
	}

	// Reverse SPT: each member's branch is the reverse of its unicast
	// path member -> root (the RPF rule). hasEdge dedups so every link
	// carries one copy.
	hasEdge := make(map[[2]topology.NodeID]bool)
	for _, m := range memberHosts {
		if g.Node(m).Kind != topology.Host {
			panic("pim: members must be hosts")
		}
		if m == sourceHost {
			continue
		}
		path := r.Path(m, root)
		if path == nil {
			panic(fmt.Sprintf("pim: member %d cannot reach root %d", m, root))
		}
		// path = m, n1, ..., root; data flows root -> ... -> n1 -> m.
		for i := len(path) - 1; i > 0; i-- {
			parent, child := path[i], path[i-1]
			key := [2]topology.NodeID{parent, child}
			if hasEdge[key] {
				continue
			}
			hasEdge[key] = true
			s.children[parent] = append(s.children[parent], child)
		}
	}

	// Install forwarding handlers on every interior tree node (and the
	// RP, which also decapsulates), in node order so that every run
	// traces the same build. The central build is one spontaneous action:
	// every installation attributes to a single causal episode.
	c := net.Root()
	for id := 0; id < g.NumNodes(); id++ {
		node := topology.NodeID(id)
		kids, ok := s.children[node]
		if !ok {
			continue
		}
		nd := net.Node(node)
		if nd.Observer() != nil {
			nd.Emit(c, obs.Event{Kind: obs.KindTableAdd, Channel: ch,
				Detail: fmt.Sprintf("%v tree: %d children", mode, len(kids))})
		}
		nd.AddHandler(netsim.HandlerFunc(s.forward))
	}
	if mode == SM && s.children[s.rp] == nil {
		// RP outside the member tree (no members, or all members
		// reached directly): it still terminates the unicast leg.
		net.Node(s.rp).AddHandler(netsim.HandlerFunc(s.forward))
	}

	for _, m := range memberHosts {
		if m == sourceHost {
			continue
		}
		mem := &Member{
			node:       net.Node(m),
			ch:         ch,
			clk:        net.Clock(),
			deliveries: make(map[uint32][]eventsim.Time),
		}
		net.Node(m).AddHandler(mem)
		s.members[m] = mem
	}
	return s
}

// forward implements the installed tree state: native multicast data
// (Dst == G) is replicated to this node's children; at the RP, the
// unicast-encapsulated packet from the source is decapsulated into
// native multicast first. The copies are effects of the packet's cause c.
func (s *Session) forward(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	d, ok := msg.(*packet.Data)
	if !ok || d.Channel != s.ch {
		return netsim.Continue
	}
	switch {
	case d.Dst == s.ch.G:
		// Native multicast: replicate down the tree.
		for _, child := range s.children[n.ID()] {
			if n.Observer() != nil {
				n.Emit(c, obs.Event{Kind: obs.KindReplicate, Channel: s.ch,
					Peer: s.net.Topology().Node(child).Addr, Seq: d.Seq, Detail: "tree copy"})
			}
			cp := packet.Clone(d).(*packet.Data)
			cp.Src = n.Addr()
			n.SendDirect(c, child, cp)
		}
		return netsim.Consumed
	case s.mode == SM && n.ID() == s.rp && d.Dst == s.rpAddr:
		// Decapsulate at the RP and start native replication.
		for _, child := range s.children[n.ID()] {
			if n.Observer() != nil {
				n.Emit(c, obs.Event{Kind: obs.KindReplicate, Channel: s.ch,
					Peer: s.net.Topology().Node(child).Addr, Seq: d.Seq, Detail: "RP decap copy"})
			}
			cp := packet.Clone(d).(*packet.Data)
			cp.Src = n.Addr()
			cp.Dst = s.ch.G
			n.SendDirect(c, child, cp)
		}
		return netsim.Consumed
	default:
		return netsim.Continue
	}
}

// Channel returns the session's channel.
func (s *Session) Channel() addr.Channel { return s.ch }

// RP returns the rendezvous point router (SM only; None for SS).
func (s *Session) RP() topology.NodeID {
	if s.mode != SM {
		return topology.None
	}
	return s.rp
}

// Member returns the agent for a member host.
func (s *Session) Member(host topology.NodeID) *Member { return s.members[host] }

// Members returns all member agents keyed by host.
func (s *Session) Members() map[topology.NodeID]*Member { return s.members }

// SendData originates one data packet: native multicast from the
// source host for SS, unicast encapsulation toward the RP for SM.
// Returns the sequence number used.
func (s *Session) SendData(payload []byte) uint32 {
	seq := s.nextSeq
	s.nextSeq++
	src := s.net.Node(s.source)
	// One causal episode per originated packet.
	c := src.Root()
	d := &packet.Data{
		Header: packet.Header{
			Proto:   packet.ProtoNone,
			Type:    packet.TypeData,
			Channel: s.ch,
			Src:     src.Addr(),
		},
		Seq:     seq,
		Payload: append([]byte(nil), payload...),
	}
	switch s.mode {
	case SS:
		d.Dst = s.ch.G
		for _, child := range s.children[s.source] {
			if src.Observer() != nil {
				src.Emit(c, obs.Event{Kind: obs.KindReplicate, Channel: s.ch,
					Peer: s.net.Topology().Node(child).Addr, Seq: seq, Detail: "source copy"})
			}
			src.SendDirect(c, child, packet.Clone(d))
		}
	case SM:
		d.Dst = s.rpAddr
		src.Send(c, d)
	}
	return seq
}

// StateRouters counts the routers holding installed tree state — the
// per-group footprint classical IP multicast pays on every on-tree
// router, which the recursive-unicast protocols' MFT/MCT split is
// compared against in the state experiments.
func (s *Session) StateRouters() int {
	g := s.net.Topology()
	n := 0
	for node := range s.children {
		if g.Node(node).Kind == topology.Router {
			n++
		}
	}
	return n
}

// TreeLinks returns the number of links in the installed tree
// (excluding the SM unicast leg), for audits and tests.
func (s *Session) TreeLinks() int {
	n := 0
	for _, cs := range s.children {
		n += len(cs)
	}
	return n
}
