package core

import (
	"hbh/internal/addr"
	"hbh/internal/invariant"
	"hbh/internal/softstate"
)

// Audit exposes one HBH channel's live protocol state to the
// invariant checker: the kit's table-reading half over the source and
// every attached router, plus the delivery walk HBH's data-plane rules
// define.
type Audit struct {
	softstate.Audit
	src     *Source
	routers []*Router
}

// NewAudit builds the provider for src's channel over the given
// routers (normally every Router attached to the topology).
func NewAudit(src *Source, routers []*Router) *Audit {
	return &Audit{Audit: softstate.NewAudit(src.Source, softstate.Routers(routers)), src: src, routers: routers}
}

var _ invariant.StateProvider = (*Audit)(nil)

// DeliveryTree implements invariant.StateProvider: it replays the
// recursive-unicast data path over the live tables. The walk mirrors
// onData exactly — marked entries are skipped, no copy goes back to
// the node it came from (split horizon), and a branching node
// replicates only the first copy that reaches it (the dedup window
// swallows the rest). Cycles the dedup window would mask at runtime
// are still reported: a chain that re-enters its own ancestry is a
// structural loop regardless of suppression.
func (a *Audit) DeliveryTree() *invariant.Tree {
	ch := a.src.Channel()
	mfts := make(map[addr.Addr]*MFT, len(a.routers))
	for _, r := range a.routers {
		if t := r.MFTFor(ch); t != nil {
			mfts[r.Addr()] = t
		}
	}
	root := ch.S
	tree := invariant.NewTree(root)
	visited := make(map[addr.Addr]bool)
	ancestry := map[addr.Addr]bool{root: true}

	var walk func(parent, at addr.Addr, chain []addr.Addr)
	walk = func(parent, at addr.Addr, chain []addr.Addr) {
		if ancestry[at] {
			tree.AddLoop(append(chain, at))
			return
		}
		t := mfts[at]
		if t == nil {
			// Not a branching node: the copy terminates here (a member
			// host, or a router whose stale upstream entry feeds a
			// dead branch).
			tree.AddChain(at, chain)
			return
		}
		if visited[at] {
			return // duplicate copy: consumed by the dedup window
		}
		visited[at] = true
		tree.AddChain(at, chain)
		ancestry[at] = true
		for _, e := range t.Entries() {
			if e.Marked || e.Node == parent {
				continue
			}
			walk(at, e.Node, append(chain, at))
		}
		delete(ancestry, at)
	}
	for _, e := range a.src.MFT().Entries() {
		if e.Marked {
			continue
		}
		walk(root, e.Node, []addr.Addr{root})
	}
	return tree
}
