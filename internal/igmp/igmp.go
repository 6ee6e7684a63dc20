// Package igmp implements the local membership protocol between end
// hosts and their border router, in the style of IGMPv2 adapted to the
// simulator's point-to-point host links.
//
// The paper's receiver model attaches hosts to routers "through IGMP"
// and observes that the number of receivers behind one border router
// does not influence the cost of the multicast tree: the router
// aggregates local membership behind a single channel subscription.
// This package provides that aggregation layer: hosts announce channel
// membership with reports, the router queries periodically and expires
// silent members, and an upper layer (core.LeafAgent) turns non-empty
// local membership into one HBH subscription and fans arriving data
// out to the local members.
package igmp

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// Config carries the IGMP timing constants, in simulator time units.
type Config struct {
	// QueryInterval is the period of the router's general queries.
	QueryInterval eventsim.Time
	// MembershipTimeout expires a member whose reports stop; it must
	// comfortably exceed the query interval.
	MembershipTimeout eventsim.Time
	// UnsolicitedReports is how many back-to-back reports a host sends
	// on join (robustness against loss; IGMPv2 sends 2).
	UnsolicitedReports int
}

// DefaultConfig matches the protocol configs used elsewhere: queries
// every 100 units, membership expiring after 250.
func DefaultConfig() Config {
	return Config{QueryInterval: 100, MembershipTimeout: 250, UnsolicitedReports: 2}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.QueryInterval <= 0 {
		return fmt.Errorf("igmp: non-positive query interval %v", c.QueryInterval)
	}
	if c.MembershipTimeout <= c.QueryInterval {
		return fmt.Errorf("igmp: membership timeout %v must exceed the query interval %v",
			c.MembershipTimeout, c.QueryInterval)
	}
	if c.UnsolicitedReports < 1 {
		return fmt.Errorf("igmp: need at least one unsolicited report")
	}
	return nil
}

// MembershipListener is notified when a channel's local membership
// becomes non-empty or empty. core.LeafAgent implements it to join and
// leave the HBH channel on behalf of local hosts. The first member
// arrives with its report's causal pair c.
type MembershipListener interface {
	FirstLocalMember(c obs.Causal, ch addr.Channel)
	LastLocalMemberGone(ch addr.Channel)
}

// member tracks one (channel, host) membership at the querier.
type member struct {
	host  topology.NodeID
	timer *clock.SoftTimer
}

// Querier is the router-side IGMP engine: it queries the attached
// hosts, tracks per-channel membership, and notifies the listener on
// membership edges.
type Querier struct {
	cfg      Config
	node     netsim.ProtoNode
	clk      clock.Clock
	hosts    []topology.NodeID
	ticker   *clock.Ticker
	listener MembershipListener
	// members[ch] maps host -> membership record, with a parallel
	// ordered slice for deterministic iteration.
	members map[addr.Channel]map[topology.NodeID]*member
	order   map[addr.Channel][]topology.NodeID
}

// AttachQuerier installs an IGMP querier on router n, serving all
// hosts directly attached to it.
func AttachQuerier(n netsim.ProtoNode, cfg Config) *Querier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := n.Topology()
	if g.Node(n.ID()).Kind != topology.Router {
		panic("igmp: querier must run on a router")
	}
	q := &Querier{
		cfg:     cfg,
		node:    n,
		clk:     n.Clock(),
		members: make(map[addr.Channel]map[topology.NodeID]*member),
		order:   make(map[addr.Channel][]topology.NodeID),
	}
	for _, nb := range g.Neighbors(n.ID()) {
		if g.Node(nb.To).Kind == topology.Host {
			q.hosts = append(q.hosts, nb.To)
		}
	}
	q.ticker = clock.NewTicker(q.clk, cfg.QueryInterval, q.sendQueries)
	n.AddHandler(q)
	return q
}

// SetListener installs the membership-edge listener (nil clears).
func (q *Querier) SetListener(l MembershipListener) { q.listener = l }

// Stop halts the query ticker.
func (q *Querier) Stop() { q.ticker.Stop() }

// Members returns the current local members of ch in join order.
func (q *Querier) Members(ch addr.Channel) []topology.NodeID {
	return q.order[ch]
}

// HasMembers reports whether any local host is a member of ch.
func (q *Querier) HasMembers(ch addr.Channel) bool { return len(q.order[ch]) > 0 }

func (q *Querier) sendQueries() {
	for _, h := range q.hosts {
		qm := &packet.Query{
			Header: packet.Header{
				Proto: packet.ProtoNone,
				Type:  packet.TypeQuery,
				Src:   q.node.Addr(),
				Dst:   q.node.Topology().Node(h).Addr,
			},
			General: true,
		}
		q.node.SendDirect(obs.Causal{}, h, qm)
	}
}

// Handle implements netsim.Handler: process membership reports from
// directly attached hosts.
func (q *Querier) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	r, ok := msg.(*packet.Report)
	if !ok || r.Dst != q.node.Addr() {
		return netsim.Continue
	}
	host, ok := n.Topology().ByAddr(r.Src)
	if !ok || !q.servesHost(host) {
		return netsim.Consumed // report from a non-local host: ignore
	}
	if r.Leave {
		q.remove(r.Channel, host)
	} else {
		q.refresh(c, r.Channel, host)
	}
	return netsim.Consumed
}

func (q *Querier) servesHost(h topology.NodeID) bool {
	for _, x := range q.hosts {
		if x == h {
			return true
		}
	}
	return false
}

func (q *Querier) refresh(c obs.Causal, ch addr.Channel, host topology.NodeID) {
	m := q.members[ch]
	if m == nil {
		m = make(map[topology.NodeID]*member)
		q.members[ch] = m
	}
	if rec := m[host]; rec != nil {
		rec.timer.Refresh()
		return
	}
	first := len(m) == 0
	rec := &member{host: host}
	// Single-phase timeout: model (t1=timeout, t2=instant-ish).
	rec.timer = clock.NewSoftTimer(q.clk, q.cfg.MembershipTimeout, 1, nil, func() {
		q.remove(ch, host)
	})
	m[host] = rec
	q.order[ch] = append(q.order[ch], host)
	if first && q.listener != nil {
		q.listener.FirstLocalMember(c, ch)
	}
}

func (q *Querier) remove(ch addr.Channel, host topology.NodeID) {
	m := q.members[ch]
	rec := m[host]
	if rec == nil {
		return
	}
	rec.timer.Cancel()
	delete(m, host)
	ord := q.order[ch]
	for i, h := range ord {
		if h == host {
			q.order[ch] = append(ord[:i], ord[i+1:]...)
			break
		}
	}
	if len(m) == 0 {
		delete(q.members, ch)
		delete(q.order, ch)
		if q.listener != nil {
			q.listener.LastLocalMemberGone(ch)
		}
	}
}

// Host is the end-system side: it reports channel memberships to its
// router, both unsolicited on join and in response to queries, and
// records data deliveries (implementing mtree.Member).
type Host struct {
	cfg    Config
	node   netsim.ProtoNode
	clk    clock.Clock
	router topology.NodeID
	joined map[addr.Channel]bool
	// Deliveries maps sequence numbers to arrival times.
	deliveries map[uint32][]eventsim.Time
}

// AttachHost installs the IGMP host agent on host n.
func AttachHost(n netsim.ProtoNode, cfg Config) *Host {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := n.Topology()
	h := &Host{
		cfg:        cfg,
		node:       n,
		clk:        n.Clock(),
		router:     g.AttachedRouter(n.ID()),
		joined:     make(map[addr.Channel]bool),
		deliveries: make(map[uint32][]eventsim.Time),
	}
	n.AddHandler(h)
	return h
}

// Addr returns the host's unicast address.
func (h *Host) Addr() addr.Addr { return h.node.Addr() }

// Join announces membership in ch with unsolicited reports.
func (h *Host) Join(ch addr.Channel) {
	if h.joined[ch] {
		return
	}
	h.joined[ch] = true
	for i := 0; i < h.cfg.UnsolicitedReports; i++ {
		i := i
		h.clk.After(eventsim.Time(i)*5, func() {
			if h.joined[ch] {
				h.sendReport(obs.Causal{}, ch, false)
			}
		})
	}
}

// Leave sends an explicit leave and stops answering queries for ch.
func (h *Host) Leave(ch addr.Channel) {
	if !h.joined[ch] {
		return
	}
	delete(h.joined, ch)
	h.sendReport(obs.Causal{}, ch, true)
}

// Joined reports whether the host is a member of ch.
func (h *Host) Joined(ch addr.Channel) bool { return h.joined[ch] }

// sendReport reports membership in ch to the router, as an effect of c.
func (h *Host) sendReport(c obs.Causal, ch addr.Channel, leave bool) {
	r := &packet.Report{
		Header: packet.Header{
			Proto:   packet.ProtoNone,
			Type:    packet.TypeReport,
			Channel: ch,
			Src:     h.node.Addr(),
			Dst:     h.node.Topology().Node(h.router).Addr,
		},
		Leave: leave,
	}
	h.node.SendDirect(c, h.router, r)
}

// Handle implements netsim.Handler: answer queries and record data.
func (h *Host) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	switch m := msg.(type) {
	case *packet.Query:
		if m.Dst != h.node.Addr() {
			return netsim.Continue
		}
		if m.General {
			for ch := range h.joined {
				h.sendReport(c, ch, false)
			}
		} else if h.joined[m.Channel] {
			h.sendReport(c, m.Channel, false)
		}
		return netsim.Consumed
	case *packet.Data:
		if m.Dst != h.node.Addr() && m.Dst != m.Channel.G {
			return netsim.Continue
		}
		if !h.joined[m.Channel] {
			return netsim.Continue
		}
		h.deliveries[m.Seq] = append(h.deliveries[m.Seq], h.clk.Now())
		return netsim.Consumed
	default:
		return netsim.Continue
	}
}

// DeliveryAt returns the arrival time of the first copy of packet seq,
// implementing mtree.Member.
func (h *Host) DeliveryAt(seq uint32) (eventsim.Time, bool) {
	ts := h.deliveries[seq]
	if len(ts) == 0 {
		return 0, false
	}
	return ts[0], true
}

// DeliveryCount returns how many copies of packet seq arrived.
func (h *Host) DeliveryCount(seq uint32) int { return len(h.deliveries[seq]) }
