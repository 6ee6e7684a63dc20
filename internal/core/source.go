package core

import (
	"hbh/internal/addr"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/softstate"
)

// Source is the HBH channel root: the soft-state kit's source
// scaffolding (table, tree ticker, entry expiry, data origination)
// plus HBH's rules — every join that reaches S installs or refreshes
// its receiver, fusions hand members over to relays, marked entries
// get tree messages but no data, and stale entries data but no tree.
type Source struct {
	*softstate.Source
	cfg     Config
	node    netsim.ProtoNode
	matched []*Entry // acceptFusion's scratch
}

// AttachSource creates the channel <n.Addr(), group> rooted at host n
// and starts the tree-emission ticker.
func AttachSource(n netsim.ProtoNode, group addr.Addr, cfg Config) *Source {
	s := &Source{cfg: cfg, node: n}
	s.Source = softstate.AttachSource(n, group, cfg.Config, softstate.SourceRules{
		Handler:   s,
		EmitTrees: s.emitTrees,
		Skip:      func(e *Entry) bool { return e.Marked },
		// If the departed entry was a relay, the members it served must
		// get data directly again.
		Expired: func(node addr.Addr) { unmarkServedBy(s.MFT(), node) },
	})
	return s
}

// Handle implements netsim.Handler for packets arriving at the source
// host: joins and fusions addressed to S.
func (s *Source) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	switch m := msg.(type) {
	case *packet.Join:
		if m.Proto != packet.ProtoHBH || m.Channel != s.Channel() {
			return netsim.Continue
		}
		s.onJoin(m, c)
		return netsim.Consumed
	case *packet.Fusion:
		if m.Proto != packet.ProtoHBH || m.Channel != s.Channel() {
			return netsim.Continue
		}
		s.onFusion(m, c)
		return netsim.Consumed
	default:
		return netsim.Continue
	}
}

// onJoin admits or refreshes a member. Any join that made it all the
// way to S (first joins always do) installs the receiver here; the
// fusion mechanism later migrates it to the right branching node.
func (s *Source) onJoin(j *packet.Join, c obs.Causal) {
	ch := s.Channel()
	if e := s.MFT().Get(j.R); e != nil {
		e.Timer.Refresh()
		// Same refresh-time mark re-validation as branching routers: a
		// relay can stop confirming the handover (it un-branched or
		// crashed), or a cost change can strand the member behind a
		// relay off the forward path.
		revalidateMark(s.node, c, s.cfg.T1, ch, e)
		e.Cause = s.node.Emit(c, obs.Event{Kind: obs.KindJoinAdmit, Channel: ch, Peer: j.R, Detail: "refresh"})
		return
	}
	s.node.Emit(c, obs.Event{Kind: obs.KindJoinAdmit, Channel: ch, Peer: j.R, Detail: "install"})
	s.AddEntry(c, j.R)
}

// onFusion applies a fusion that reached the root, with the same
// routing-verified acceptance as branching routers: the candidate must
// actually sit on our forward path to the member it offers to serve.
func (s *Source) onFusion(f *packet.Fusion, c obs.Causal) {
	if f.Bp == s.node.Addr() {
		return
	}
	s.matched = acceptFusion(s.node, c, s.MFT(), f, s.matched[:0],
		func(node addr.Addr) *Entry { return s.AddEntry(c, node) })
}

// emitTrees is the periodic downstream refresh: one tree(S, X) per
// non-stale entry X.
func (s *Source) emitTrees() {
	for _, e := range s.MFT().Entries() {
		if e.Stale() {
			continue
		}
		// Attribute the refresh (and the tree message it sends) to the
		// join episode that installed or last refreshed this entry.
		s.SendTree(e.Cause, packet.ProtoHBH, e.Node, false, "source refresh")
	}
}
