package reunite

import (
	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/softstate"
)

// chanState is a REUNITE router's per-channel state: an MCT while
// non-branching, an MFT once branching (never both).
type chanState struct {
	mct *MCT
	mft *MFT
	// lastRegen rate-limits downstream tree regeneration to once per
	// refresh interval: soft-state refreshes are periodic, and
	// regenerating on every trigger would let two branching nodes that
	// sit on each other's delivery paths amplify tree messages without
	// bound.
	lastRegen eventsim.Time
	hasRegen  bool
	// seen is the channel's window in Router.seen, kept here once looked
	// up so the data path finds it with the record (softstate.Dedup.Cached).
	seen *softstate.Window
}

// Router is the REUNITE protocol engine resident on a multicast-capable
// router.
type Router struct {
	cfg   Config
	node  netsim.ProtoNode
	clk   clock.Clock
	chans map[addr.Channel]*chanState
	seen  softstate.Dedup
	// replica is the one packet every replicated data copy is sent from,
	// and tree the one every regenerated refresh is (the transport copies
	// what it sends).
	replica packet.Data
	tree    packet.Tree
}

// AttachRouter creates a REUNITE Router on n and registers it as a
// packet handler.
func AttachRouter(n netsim.ProtoNode, cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Router{
		cfg:   cfg,
		node:  n,
		clk:   n.Clock(),
		chans: make(map[addr.Channel]*chanState),
	}
	n.AddHandler(r)
	return r
}

// MFTFor exposes the channel's forwarding table for tests (nil when
// not branching).
func (r *Router) MFTFor(ch addr.Channel) *MFT {
	if st := r.chans[ch]; st != nil {
		return st.mft
	}
	return nil
}

// MCTFor exposes the channel's control table for tests (nil when
// absent).
func (r *Router) MCTFor(ch addr.Channel) *MCT {
	if st := r.chans[ch]; st != nil {
		return st.mct
	}
	return nil
}

// Addr returns the router's unicast address.
func (r *Router) Addr() addr.Addr { return r.node.Addr() }

// State implements softstate.Router.
func (r *Router) State(ch addr.Channel) (mct *MCT, mft *softstate.MFT, held bool) {
	st := r.chans[ch]
	if st == nil {
		return nil, nil, false
	}
	if st.mft != nil {
		mft = st.mft.MFT
	}
	return st.mct, mft, true
}

// Dedup implements softstate.Router.
func (r *Router) Dedup() softstate.Dedup { return r.seen }

// Handle implements netsim.Handler, as an effect of the packet's causal
// pair c.
func (r *Router) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	switch m := msg.(type) {
	case *packet.Join:
		if m.Proto != packet.ProtoREUNITE {
			return netsim.Continue
		}
		return r.onJoin(m, c)
	case *packet.Tree:
		if m.Proto != packet.ProtoREUNITE {
			return netsim.Continue
		}
		return r.onTree(m, c)
	case *packet.Data:
		return r.onData(m, c)
	default:
		return netsim.Continue
	}
}

// onJoin: a join is intercepted by the first node already carrying
// tree state for the channel — the rule that, under asymmetric
// routing, pins receivers to non-shortest paths.
func (r *Router) onJoin(j *packet.Join, c obs.Causal) netsim.Verdict {
	if j.R == r.node.Addr() {
		return netsim.Continue
	}
	st := r.chans[j.Channel]
	if st == nil {
		return netsim.Continue
	}

	if st.mft != nil {
		if st.mft.TableStale {
			// A stale table no longer intercepts joins; orphans
			// escalate toward the source (Figure 2(c)).
			return netsim.Continue
		}
		dst := st.mft.Dst()
		if dst != nil && dst.Node == j.R {
			// The dst receiver's join must keep travelling upstream:
			// it is what refreshes this subtree's entry at the node
			// where dst originally joined. Refresh locally en route.
			dst.Timer.Refresh()
			dst.Cause = c
			return netsim.Continue
		}
		if e := st.mft.Get(j.R); e != nil {
			e.Timer.Refresh()
			e.Cause = r.node.Emit(c, obs.Event{Kind: obs.KindJoinIntercept, Channel: j.Channel, Peer: j.R,
				Detail: "refresh member entry"})
			return netsim.Consumed
		}
		r.node.Emit(c, obs.Event{Kind: obs.KindJoinIntercept, Channel: j.Channel, Peer: j.R, Detail: "admit new member"})
		r.addMFTEntry(c, st, j.Channel, j.R)
		return netsim.Consumed
	}

	if st.mct != nil && st.mct.Node != j.R && !st.mct.Stale() {
		// A join from a second receiver crossing a node with live
		// control state: this node becomes a branching node with the
		// recorded receiver as dst (Figure 2(a): R3 intercepts
		// join(S, r2) and takes r1 as dst).
		r.becomeBranching(c, st, j.Channel, j.R)
		return netsim.Consumed
	}
	return netsim.Continue
}

// becomeBranching converts the MCT entry into an MFT whose dst is the
// recorded receiver, then admits the joining receiver, as an effect of
// its join's cause c.
func (r *Router) becomeBranching(c obs.Causal, st *chanState, ch addr.Channel, joiner addr.Addr) {
	dst := st.mct.Node
	dstCause := st.mct.Cause
	st.mct.Timer.Cancel()
	st.mct = nil
	r.node.Emit(c, obs.Event{Kind: obs.KindBranch, Channel: ch, Peer: joiner,
		Detail: "second receiver's join crossed live control state"})
	st.mft = NewMFT()
	// dst keeps the provenance its MCT entry carried, so its refresh
	// chain stays attributed to its own episode.
	st.mft.Add(dst, r.newEntryTimer(ch, dst)).Cause = dstCause
	st.mft.Liveness = clock.NewSoftTimer(r.clk, r.cfg.T1, r.cfg.T2, func() {
		// No tree for dst within t1: this node has fallen off the
		// channel's refresh path. A table in that state must stop
		// intercepting joins — otherwise it starves the upstream entries
		// its members actually depend on (they are refreshed exclusively
		// by those joins), while its own un-refreshed table runs down
		// toward destruction: the two expiries chase each other and the
		// members oscillate between served and starved without ever
		// settling. Going stale lets joins escalate toward the source
		// (Figure 2(c)) for the t2 tail, exactly like a stale MCT.
		if st.mft != nil && !st.mft.TableStale {
			// Timer-driven: roots its own causal episode.
			c := r.node.Root()
			st.mft.TableStale = true
			r.node.Emit(c, obs.Event{Kind: obs.KindCollapse, Channel: ch, Detail: "table stale: off the refresh path"})
		}
	}, func() {
		r.destroyMFT(r.node.Root(), ch)
	})
	r.addMFTEntry(c, st, ch, joiner)
}

// onTree installs and refreshes tree state as the refresh travels
// downstream toward its receiver.
func (r *Router) onTree(t *packet.Tree, c obs.Causal) netsim.Verdict {
	if t.R == r.node.Addr() {
		// Receivers are hosts; a tree addressed to a router is stale
		// junk state. Drop it.
		return netsim.Consumed
	}
	ch := t.Channel
	st := r.chans[ch]
	if st == nil {
		if t.Marked() {
			// A teardown announcement transiting a stateless router:
			// there is nothing to dissolve, and materialising empty
			// channel state just to witness it would leak one chanState
			// per dead channel (the source keeps emitting marked trees
			// until the entry finally expires).
			return netsim.Continue
		}
		st = &chanState{}
		r.chans[ch] = st
	}

	if st.mft != nil {
		dst := st.mft.Dst()
		if dst != nil && dst.Node == t.R {
			if st.mft.Liveness != nil {
				st.mft.Liveness.Refresh()
			}
			if t.Marked() {
				// Upstream announced dst's data flow will stop: go
				// stale so joins escalate past us (Figure 2(b)).
				if !st.mft.TableStale {
					st.mft.TableStale = true
					r.node.Emit(c, obs.Event{Kind: obs.KindCollapse, Channel: ch, Peer: dst.Node,
						Detail: "table stale: marked tree for dst"})
				}
			} else {
				st.mft.TableStale = false
				dst.Timer.Refresh()
				dst.Cause = c
			}
			// Regenerate one tree per additional receiver; a stale
			// entry's tree is marked, dissolving its downstream state.
			// Rate-limited to the refresh period. Each regenerated tree
			// attributes to its entry's own episode (see Entry.Cause).
			now := r.clk.Now()
			if !st.hasRegen || now-st.lastRegen >= r.cfg.TreeInterval*9/10 {
				st.hasRegen = true
				st.lastRegen = now
				for _, e := range st.mft.Entries()[1:] {
					r.sendTree(e.Cause, ch, e.Node, e.Stale())
				}
			}
			return netsim.Continue // original continues toward dst
		}
		// A tree for a non-dst member transits: REUNITE installs and
		// refreshes nothing here — non-dst MFT entries are refreshed
		// exclusively by the member's intercepted joins ("join(S, rj)
		// refreshes the rj entry in the MFT of the node where rj
		// joined"). Refreshing them from passing trees would keep a
		// member alive in several tables at once and duplicate its
		// deliveries indefinitely.
		return netsim.Continue
	}

	// Non-branching: single-entry control state.
	if t.Marked() {
		// Destruction of any R control entry (Figure 2(b)).
		if st.mct != nil && st.mct.Node == t.R {
			r.removeMCT(c, ch, st)
		}
		return netsim.Continue
	}
	switch {
	case st.mct == nil:
		r.createMCT(c, st, ch, t.R)
	case st.mct.Node == t.R:
		st.mct.Timer.Refresh()
		st.mct.Cause = c
	case st.mct.Stale():
		// The recorded receiver is going away; adopt the new one.
		r.removeMCT(c, ch, st)
		r.createMCT(c, st, ch, t.R)
	default:
		// A second receiver's tree transits, but REUNITE has no way to
		// record it: the node stays blind to the shared path. This is
		// the root of the Figure 3 duplication.
	}
	return netsim.Continue
}

func (r *Router) createMCT(c obs.Causal, st *chanState, ch addr.Channel, node addr.Addr) {
	st.mct = &MCT{Node: node, Timer: clock.NewSoftTimer(r.clk, r.cfg.T1, r.cfg.T2, nil, func() {
		if st.mct != nil && st.mct.Node == node {
			// Timer-driven expiry roots its own episode.
			r.removeMCT(r.node.Root(), ch, st)
		}
	})}
	st.mct.Cause = r.node.Emit(c, obs.Event{Kind: obs.KindTableAdd, Channel: ch, Peer: node, Detail: "mct"})
}

func (r *Router) removeMCT(c obs.Causal, ch addr.Channel, st *chanState) {
	if st.mct == nil {
		return
	}
	node := st.mct.Node
	st.mct.Timer.Cancel()
	st.mct = nil
	r.node.Emit(c, obs.Event{Kind: obs.KindTableRemove, Channel: ch, Peer: node, Detail: "mct"})
	r.maybeDrop(ch, st)
}

// onData duplicates data addressed to this node's MFT dst: one copy
// per additional receiver, while the original flows on toward dst.
// Each packet is replicated at most once per node: without that guard,
// two branching nodes lying on each other's delivery paths (possible
// under asymmetric routing) would ping-pong fresh copies forever.
func (r *Router) onData(d *packet.Data, c obs.Causal) netsim.Verdict {
	st := r.chans[d.Channel]
	if st == nil || st.mft == nil {
		return netsim.Continue
	}
	dst := st.mft.Dst()
	if dst == nil || dst.Node != d.Dst {
		return netsim.Continue
	}
	if r.seen.Cached(&st.seen, d.Channel).Seen(d.Seq) {
		return netsim.Continue
	}
	// The loop ranges over the table's live backing slice; sends are
	// deferred events, so nothing may mutate the table under it. The
	// version guard makes any future violation loud (see core's onData).
	v := st.mft.Version()
	r.replica = *d
	r.replica.Src = r.node.Addr()
	for _, e := range st.mft.Entries()[1:] {
		if r.node.Observer() != nil { // an Event costs a copy to pass
			r.node.Emit(c, obs.Event{Kind: obs.KindReplicate, Channel: d.Channel, Peer: e.Node, Seq: d.Seq})
		}
		r.replica.Dst = e.Node
		r.node.Send(c, &r.replica)
	}
	r.replica.Payload = nil
	if st.mft.Version() != v {
		panic("reunite: MFT mutated during onData replication")
	}
	return netsim.Continue
}

func (r *Router) sendTree(c obs.Causal, ch addr.Channel, target addr.Addr, marked bool) {
	detail := "regeneration"
	if marked {
		detail = "regeneration [marked]"
	}
	softstate.SendTree(r.node, &r.tree, c, packet.ProtoREUNITE, ch, target, marked, detail)
}

func (r *Router) newEntryTimer(ch addr.Channel, node addr.Addr) *clock.SoftTimer {
	return clock.NewSoftTimer(r.clk, r.cfg.T1, r.cfg.T2, nil, func() {
		st := r.chans[ch]
		if st == nil || st.mft == nil {
			return
		}
		// Timer-driven expiry roots its own causal episode.
		c := r.node.Root()
		st.mft.Remove(node)
		r.node.Emit(c, obs.Event{Kind: obs.KindTableRemove, Channel: ch, Peer: node, Detail: "mft"})
		if st.mft.Len() == 0 {
			r.destroyMFT(c, ch)
		}
	})
}

func (r *Router) addMFTEntry(c obs.Causal, st *chanState, ch addr.Channel, node addr.Addr) {
	e := st.mft.Add(node, r.newEntryTimer(ch, node))
	e.Cause = r.node.Emit(c, obs.Event{Kind: obs.KindTableAdd, Channel: ch, Peer: node, Detail: "mft"})
}

func (r *Router) destroyMFT(c obs.Causal, ch addr.Channel) {
	st := r.chans[ch]
	if st == nil || st.mft == nil {
		return
	}
	st.mft.Destroy()
	st.mft = nil
	r.node.Emit(c, obs.Event{Kind: obs.KindCollapse, Channel: ch, Detail: "mft destroyed"})
	r.maybeDrop(ch, st)
}

// maybeDrop garbage-collects empty channel state, including the
// duplicate-suppression window (see softstate.Dedup.Drop).
func (r *Router) maybeDrop(ch addr.Channel, st *chanState) {
	if st.mct == nil && st.mft == nil {
		delete(r.chans, ch)
		r.seen.Drop(ch)
	}
}
