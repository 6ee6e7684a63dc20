package softstate

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/invariant"
)

// Router is the protocol-independent view of a router engine: what the
// audit below and the experiment harness read from, or install on, a
// router without knowing which protocol's rules it runs.
type Router interface {
	// Addr returns the router's unicast address.
	Addr() addr.Addr
	// State returns the router's record for ch — its control entry or
	// its forwarding table, at most one of them non-nil — and whether
	// it holds a record for the channel at all.
	State(ch addr.Channel) (mct *MCT, mft *MFT, held bool)
	// Dedup returns the router's duplicate-suppression windows.
	Dedup() Dedup
}

// Audit is the half of invariant.StateProvider that reads tables
// without interpreting them: the root, the table snapshots and the
// teardown residue. Each protocol embeds it and adds the DeliveryTree
// walk its own data-plane rules define. It reads the real tables
// directly — no parallel bookkeeping that could itself drift from the
// truth.
type Audit struct {
	src     *Source
	routers []Router
}

// Routers widens a protocol's own router slice to the shared view.
func Routers[R Router](rs []R) []Router {
	out := make([]Router, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}

// NewAudit builds the shared audit half for src's channel over the
// given routers (normally every router engine attached to the
// topology).
func NewAudit(src *Source, routers []Router) Audit {
	return Audit{src: src, routers: routers}
}

// Root implements invariant.StateProvider.
func (a Audit) Root() addr.Addr { return a.src.ch.S }

// States implements invariant.StateProvider: a snapshot of the source
// MFT and of each router's per-channel tables.
func (a Audit) States() []invariant.NodeState {
	out := []invariant.NodeState{{
		Node:    a.src.ch.S,
		IsRoot:  true,
		HasMFT:  true,
		Entries: entryStates(a.src.mft),
	}}
	for _, r := range a.routers {
		mct, mft, held := r.State(a.src.ch)
		if !held {
			continue
		}
		ns := invariant.NodeState{Node: r.Addr()}
		if mct != nil {
			ns.HasMCT = true
			ns.MCTNode = mct.Node
		}
		if mft != nil {
			ns.HasMFT = true
			ns.Entries = entryStates(mft)
		}
		out = append(out, ns)
	}
	return out
}

func entryStates(t *MFT) []invariant.EntryState {
	out := make([]invariant.EntryState, 0, t.Len())
	for _, e := range t.Entries() {
		out = append(out, invariant.EntryState{
			Node: e.Node, Marked: e.Marked, Stale: e.Stale(), ServedBy: e.ServedBy,
		})
	}
	return out
}

// Residuals implements invariant.StateProvider: after every receiver
// leaves (and the soft timers run out) or a router crash wiped its
// tables, nothing channel-scoped may survive — no MCT/MFT state, no
// rate-limit stamps (they live inside the per-channel record), and no
// dedup window.
func (a Audit) Residuals() []invariant.Residual {
	ch := a.src.ch
	var out []invariant.Residual
	if n := a.src.mft.Len(); n > 0 {
		out = append(out, invariant.Residual{
			Node:   ch.S,
			Detail: fmt.Sprintf("source MFT still holds %d entries", n),
		})
	}
	for _, r := range a.routers {
		if mct, mft, held := r.State(ch); held {
			out = append(out, invariant.Residual{
				Node: r.Addr(),
				Detail: fmt.Sprintf("per-channel state survives teardown (mct=%v mft=%v)",
					mct != nil, mft != nil),
			})
		}
		if r.Dedup()[ch] != nil {
			out = append(out, invariant.Residual{
				Node:   r.Addr(),
				Detail: "dedup window survives teardown",
			})
		}
	}
	return out
}
