package reunite

import (
	"hbh/internal/addr"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/softstate"
)

// Source is the REUNITE channel root: the soft-state kit's source
// scaffolding plus REUNITE's rules — the table's dst is the first
// receiver that joined the group, data goes to every entry (dst plus
// one copy per additional entry), and the periodic tree refresh is
// marked for a stale entry, announcing its upcoming teardown.
type Source struct {
	*softstate.Source
	node netsim.ProtoNode
}

// AttachSource creates the channel <n.Addr(), group> rooted at host n.
func AttachSource(n netsim.ProtoNode, group addr.Addr, cfg Config) *Source {
	s := &Source{node: n}
	s.Source = softstate.AttachSource(n, group, cfg, softstate.SourceRules{
		Handler:   s,
		EmitTrees: s.emitTrees,
	})
	return s
}

// Handle implements netsim.Handler for joins that reached the source.
func (s *Source) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	j, ok := msg.(*packet.Join)
	if !ok || j.Proto != packet.ProtoREUNITE || j.Channel != s.Channel() {
		return netsim.Continue
	}
	if e := s.MFT().Get(j.R); e != nil {
		e.Timer.Refresh()
		e.Cause = s.node.Emit(c, obs.Event{Kind: obs.KindJoinAdmit, Channel: j.Channel, Peer: j.R, Detail: "refresh"})
		return netsim.Consumed
	}
	s.node.Emit(c, obs.Event{Kind: obs.KindJoinAdmit, Channel: j.Channel, Peer: j.R, Detail: "install"})
	s.AddEntry(c, j.R)
	return netsim.Consumed
}

// emitTrees sends the periodic refresh: tree(S, dst) — marked when dst
// is stale, announcing the upcoming teardown — plus one tree per
// additional entry.
func (s *Source) emitTrees() {
	for _, e := range s.MFT().Entries() {
		marked := e.Stale()
		detail := "source refresh"
		if marked {
			detail = "source refresh [marked]"
		}
		// Attribute the refresh to the join episode that installed or
		// last refreshed this entry (see Entry.Cause).
		s.SendTree(e.Cause, packet.ProtoREUNITE, e.Node, marked, detail)
	}
}
