package softstate

import (
	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
)

// SourceRules is what a protocol hands the channel-root scaffolding at
// attach time: the rules that differ, as values.
type SourceRules struct {
	// Handler receives every packet arriving at the source host: the
	// protocol's join (and, for HBH, fusion) rules.
	Handler netsim.Handler
	// EmitTrees is the periodic downstream refresh, run every
	// TreeInterval.
	EmitTrees func()
	// Skip, when non-nil, names the entries SendData must not copy to
	// (HBH: marked entries, whose data a downstream relay carries).
	Skip func(*Entry) bool
	// Expired, when non-nil, runs after an entry's t2 removal (HBH: lift
	// the marks the departed relay was serving).
	Expired func(node addr.Addr)
}

// Source is the channel root: the host agent at S. It owns the
// top-level MFT, drives the periodic tree refresh, installs and expires
// member entries, and originates data with one rewritten copy per
// served entry. Which joins install what, and what a refresh says, are
// the protocol's SourceRules.
type Source struct {
	cfg      Config
	node     netsim.ProtoNode
	clk      clock.Clock
	ch       addr.Channel
	mft      *MFT
	ticker   *clock.Ticker
	observer ChangeObserver
	nextSeq  uint32
	rules    SourceRules
	// data is the one packet every copy of a SendData is sent from, and
	// tree the one every refresh is (the transport copies what it sends).
	data packet.Data
	tree packet.Tree
}

// AttachSource creates the channel <n.Addr(), group> rooted at host n,
// starts the tree-emission ticker and registers rules.Handler on n.
func AttachSource(n netsim.ProtoNode, group addr.Addr, cfg Config, rules SourceRules) *Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ch, err := addr.NewChannel(n.Addr(), group)
	if err != nil {
		panic(err)
	}
	s := &Source{
		cfg:   cfg,
		node:  n,
		clk:   n.Clock(),
		ch:    ch,
		mft:   NewMFT(),
		rules: rules,
	}
	s.ticker = clock.NewTicker(s.clk, cfg.TreeInterval, rules.EmitTrees)
	n.AddHandler(rules.Handler)
	return s
}

// Channel returns the channel this source roots.
func (s *Source) Channel() addr.Channel { return s.ch }

// MFT exposes the source table for the protocol's rules, tests and
// audits.
func (s *Source) MFT() *MFT { return s.mft }

// SetObserver installs the state-change observer (nil clears it).
func (s *Source) SetObserver(o ChangeObserver) { s.observer = o }

// Observe reports a state change at the source to the observer.
func (s *Source) Observe(kind ChangeKind, node addr.Addr) {
	if s.observer != nil {
		s.observer(s.node.Addr(), s.ch, kind, node)
	}
}

// Stop halts the periodic tree emission (end of the session).
func (s *Source) Stop() { s.ticker.Stop() }

// AddEntry installs node in the source table, as an effect of c, with a
// fresh (t1, t2) timer whose expiry removes it again.
func (s *Source) AddEntry(c obs.Causal, node addr.Addr) *Entry {
	timer := clock.NewSoftTimer(s.clk, s.cfg.T1, s.cfg.T2, nil, func() {
		if s.mft.Get(node) != nil {
			// Expiry is a spontaneous action (the member went silent):
			// it roots its own causal episode.
			c := s.node.Root()
			s.mft.Remove(node)
			s.Observe(ChangeMFTRemove, node)
			s.node.Emit(c, obs.Event{Kind: obs.KindTableRemove, Channel: s.ch, Peer: node, Detail: "mft"})
			if s.rules.Expired != nil {
				s.rules.Expired(node)
			}
		}
	})
	e := s.mft.Add(node, timer)
	s.Observe(ChangeMFTAdd, node)
	e.Cause = s.node.Emit(c, obs.Event{Kind: obs.KindTableAdd, Channel: s.ch, Peer: node, Detail: "mft"})
	return e
}

// SendTree sends tree(S, target) from the source as an effect of c (see
// the package function SendTree).
func (s *Source) SendTree(c obs.Causal, proto packet.Protocol, target addr.Addr, marked bool, detail string) {
	SendTree(s.node, &s.tree, c, proto, s.ch, target, marked, detail)
}

// SendData originates one multicast payload over the recursive unicast
// tree: one copy per entry the rules do not skip. It returns the
// sequence number used, so measurement code can correlate deliveries.
func (s *Source) SendData(payload []byte) uint32 {
	seq := s.nextSeq
	s.nextSeq++
	// One causal episode per originated packet: every replica cascade
	// downstream attributes to this origination.
	c := s.node.Root()
	s.data = packet.Data{
		Header: packet.Header{
			Proto:   packet.ProtoNone,
			Type:    packet.TypeData,
			Channel: s.ch,
			Src:     s.node.Addr(),
		},
		Seq: seq,
		// The copies in flight share one private copy of the caller's
		// buffer; nothing downstream writes to a payload.
		Payload: append([]byte(nil), payload...),
	}
	for _, e := range s.mft.Entries() {
		if s.rules.Skip != nil && s.rules.Skip(e) {
			continue
		}
		if s.node.Observer() != nil { // an Event costs a copy to pass
			s.node.Emit(c, obs.Event{Kind: obs.KindReplicate, Channel: s.ch, Peer: e.Node, Seq: seq, Detail: "source copy"})
		}
		s.data.Dst = e.Node
		s.node.Send(c, &s.data)
	}
	s.data.Payload = nil
	return seq
}
