package reunite

import (
	"hbh/internal/addr"
	"hbh/internal/invariant"
	"hbh/internal/softstate"
	"hbh/internal/topology"
)

// Audit exposes one REUNITE channel's live state to the invariant
// checker: the kit's table-reading half (REUNITE entries have no marked
// bit, so of the table checks only the MCT/MFT exclusion and self-entry
// ones bite) plus the delivery walk REUNITE's data path defines.
type Audit struct {
	softstate.Audit
	src     *Source
	routers []*Router
}

// NewAudit builds the provider for src's channel over the given
// routers.
func NewAudit(src *Source, routers []*Router) *Audit {
	return &Audit{Audit: softstate.NewAudit(src.Source, softstate.Routers(routers)), src: src, routers: routers}
}

var _ invariant.StateProvider = (*Audit)(nil)

// DeliveryTree implements invariant.StateProvider by replaying
// REUNITE's data path over the live tables: the source addresses one
// copy per entry, each copy follows the unicast path to its dst
// receiver, and any branching router along the way whose table dst
// matches the copy's destination replicates one extra copy per
// additional entry — at most once per node, mirroring the runtime's
// per-packet dedup window. The window is what makes replication cycles
// structurally impossible (two branching nodes on each other's delivery
// paths — a normal REUNITE pattern under asymmetric routing — transit
// each other's copies without re-replicating, yielding the duplicate
// deliveries the experiments measure, not a loop), so the walk records
// no Loops; what remains checkable is that every copy terminates on a
// finite unicast path, which the walk guarantees by construction.
func (a *Audit) DeliveryTree() *invariant.Tree {
	ch := a.src.Channel()
	g, rt := a.src.node.Topology(), a.src.node.Routing()

	branches := make(map[topology.NodeID]*MFT, len(a.routers))
	for _, r := range a.routers {
		if t := r.MFTFor(ch); t != nil {
			branches[r.node.ID()] = t
		}
	}

	root := ch.S
	tree := invariant.NewTree(root)
	replicated := make(map[topology.NodeID]bool)

	var deliver func(origin topology.NodeID, dst addr.Addr, chain []addr.Addr)
	deliver = func(origin topology.NodeID, dst addr.Addr, chain []addr.Addr) {
		dstID, ok := g.ByAddr(dst)
		if !ok || !rt.Reachable(origin, dstID) {
			return // copy dies in the network; spanning (when on) reports it
		}
		for v := origin; v != dstID; {
			v = rt.NextHop(v, dstID)
			if v == topology.None {
				return
			}
			if v == dstID {
				tree.AddChain(dst, chain)
				return
			}
			mft, isBranch := branches[v]
			if !isBranch || mft.Dst() == nil || mft.Dst().Node != dst {
				continue
			}
			if replicated[v] {
				continue // dedup window: this node already replicated the packet
			}
			replicated[v] = true
			sub := append(append([]addr.Addr(nil), chain...), g.Node(v).Addr)
			for _, e := range mft.Entries()[1:] {
				deliver(v, e.Node, sub)
			}
		}
	}

	rootID := a.src.node.ID()
	for _, e := range a.src.MFT().Entries() {
		deliver(rootID, e.Node, []addr.Addr{root})
	}
	return tree
}
