package core

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/softstate"
	"hbh/internal/topology"
)

// chanState is a router's per-channel state: exactly one of mct / mft
// is non-nil once the router is on the tree (a router is either
// non-branching or branching for a channel, never both).
type chanState struct {
	mct *MCT
	mft *MFT
	// lastRegen / lastFusion rate-limit downstream tree regeneration
	// and upstream fusion emission to once per refresh interval:
	// soft-state refreshes are periodic, and re-emitting on every
	// trigger would let branching nodes that sit on each other's
	// delivery paths amplify control traffic without bound.
	lastRegen  eventsim.Time
	hasRegen   bool
	lastFusion eventsim.Time
	hasFusion  bool
	// seen is the channel's window in Router.seen, kept here once looked
	// up so the data path finds it with the record (softstate.Dedup.Cached).
	seen *softstate.Window
}

// Router is the HBH protocol engine resident on a multicast-capable
// router. Install it on a netsim node with Attach. One Router serves
// every channel crossing the node.
type Router struct {
	cfg   Config
	node  netsim.ProtoNode
	clk   clock.Clock
	chans map[addr.Channel]*chanState
	seen  softstate.Dedup
	leaf  *LeafAgent
	// replica is the one packet every replicated data copy is sent from,
	// and out the one every control message is (the transport copies
	// what it sends); matched is the scratch acceptFusion collects into.
	replica packet.Data
	out     packet.Control
	matched []*Entry
}

// setLeaf wires the node's LeafAgent into the data path so channel
// packets addressed to this router reach local IGMP members as well as
// downstream MFT entries.
func (r *Router) setLeaf(l *LeafAgent) { r.leaf = l }

// AttachRouter creates an HBH Router on n and registers it as a packet
// handler.
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

// Addr returns the router's unicast address.
func (r *Router) Addr() addr.Addr { return r.node.Addr() }

// Reset drops every table and timer, simulating a router crash and
// cold restart. Soft state makes this survivable by design: upstream
// entries for this router age out or keep feeding it data (stale
// entries still forward), downstream joins and tree refreshes rebuild
// the local tables within a few refresh intervals, and fusion splices
// the node back into the trees it belongs on.
func (r *Router) Reset() {
	for ch, st := range r.chans {
		if st.mct != nil {
			st.mct.Timer.Cancel()
		}
		if st.mft != nil {
			st.mft.Destroy()
		}
		delete(r.chans, ch)
	}
	r.seen = nil
}

// MFTFor returns the channel's forwarding table (nil when this router
// is not a branching node for ch). Exposed for tests and tree audits.
func (r *Router) MFTFor(ch addr.Channel) *MFT {
	if st := r.chans[ch]; st != nil {
		return st.mft
	}
	return nil
}

// MCTFor returns the channel's control entry (nil when absent).
func (r *Router) MCTFor(ch addr.Channel) *MCT {
	if st := r.chans[ch]; st != nil {
		return st.mct
	}
	return nil
}

// State implements softstate.Router.
func (r *Router) State(ch addr.Channel) (mct *MCT, mft *MFT, held bool) {
	if st := r.chans[ch]; st != nil {
		return st.mct, st.mft, true
	}
	return nil, nil, false
}

// Dedup implements softstate.Router.
func (r *Router) Dedup() softstate.Dedup { return r.seen }

// Handle implements netsim.Handler: hop-by-hop processing of every
// packet that crosses this router, as an effect of its causal pair c.
func (r *Router) Handle(n netsim.ProtoNode, msg packet.Message, c obs.Causal) netsim.Verdict {
	switch m := msg.(type) {
	case *packet.Join:
		if m.Proto != packet.ProtoHBH {
			return netsim.Continue
		}
		return r.onJoin(m, c)
	case *packet.Tree:
		if m.Proto != packet.ProtoHBH {
			return netsim.Continue
		}
		return r.onTree(m, c)
	case *packet.Fusion:
		if m.Proto != packet.ProtoHBH {
			return netsim.Continue
		}
		return r.onFusion(m, c)
	case *packet.Data:
		return r.onData(m, c)
	default:
		return netsim.Continue
	}
}

// onJoin applies the join rules of Figure 9(a): forward unless this is
// a branching node holding an entry for R, in which case intercept,
// refresh the entry, and sign a join upstream ourselves.
func (r *Router) onJoin(j *packet.Join, c obs.Causal) netsim.Verdict {
	if !r.cfg.EnableFusion {
		// Fusion ablation: the router never branches, so it never
		// intercepts joins either; every receiver stays joined at the
		// source and data degenerates to a unicast star.
		return netsim.Continue
	}
	st := r.chans[j.Channel]
	if st == nil || st.mft == nil { // rule 1: no MFT
		return netsim.Continue
	}
	if j.First() {
		// A receiver's first join always reaches the source; this is
		// what guarantees the shortest-path join point.
		return netsim.Continue
	}
	e := st.mft.Get(j.R)
	if e == nil { // rule 2: R not ours
		return netsim.Continue
	}
	if sID, ok := r.node.Topology().ByAddr(j.Channel.S); !ok ||
		!onForwardPath(r.node, sID, r.node.Addr(), j.R) {
		// We hold R but do not sit on the forward source->R delivery
		// path (the join crossed us only because the reverse path
		// diverges). Intercepting here would keep a parallel, redundant
		// delivery chain alive forever; letting the join continue lets
		// an on-path holder (or the source) claim it while our entry
		// ages out.
		return netsim.Continue
	}
	// Rule 3: intercept. The join refreshes R's entry (clearing
	// staleness; a fusion-installed next-branching-node entry becomes a
	// regular child once its joins arrive) and B joins the channel
	// itself at the next upstream branching router.
	e.Timer.Refresh()
	revalidateMark(r.node, c, r.cfg.T1, j.Channel, e)
	e.Cause = r.node.Emit(c, obs.Event{Kind: obs.KindJoinIntercept, Channel: j.Channel, Peer: j.R,
		Detail: "rule 3: refresh entry, self-join upstream"})
	r.sendJoinSelf(c, j.Channel)
	return netsim.Consumed
}

// revalidateMark re-checks a marked entry on every soft-state refresh
// of the entry, lifting the mark when the relay association has gone
// bad in either of the two ways routing and collapse can break it:
//
//   - The relay stopped confirming the handover: its periodic fusions
//     no longer re-list the member (it un-branched, crashed, or dropped
//     the member) and the mark's MarkConfirmed timestamp has aged past
//     T1. Waiting for the relay's own table entry to expire instead is
//     not enough — a border router with local IGMP members keeps its
//     entry upstream alive with leaf joins forever, even after it
//     collapsed to non-branching and stopped relaying.
//   - The relay no longer sits on this node's forward path to the
//     member after a routing cost change, so its fusions (which only
//     flow while trees transit it) can never retract the mark.
//
// The refresh traffic that keeps the marked entry alive is the only
// reliable trigger for both repairs. Branching routers and the source
// (n, holding e in its table for ch) run the same check, as an effect
// of the refresh's cause c.
func revalidateMark(n netsim.ProtoNode, c obs.Causal, t1 eventsim.Time, ch addr.Channel, e *Entry) {
	if !e.Marked {
		return
	}
	if markLapsed(e, n.Clock().Now(), t1) {
		e.Marked = false
		e.ServedBy = addr.Unspecified
		n.Emit(c, obs.Event{Kind: obs.KindMarkLift, Channel: ch, Peer: e.Node, Detail: "relay stopped confirming the handover"})
		return
	}
	if onForwardPath(n, n.ID(), e.ServedBy, e.Node) {
		return
	}
	e.Marked = false
	e.ServedBy = addr.Unspecified
	n.Emit(c, obs.Event{Kind: obs.KindMarkLift, Channel: ch, Peer: e.Node, Detail: "relay off the forward path"})
}

// markLapsed reports whether a mark has outlived its confirmation
// window: no fusion from the serving relay has re-listed the member
// for longer than t1, the same staleness horizon table entries use.
// Healthy relays re-fuse once per tree interval, so a lapse means the
// relay is gone from the control plane even if its table entry is
// still being refreshed by unrelated traffic.
func markLapsed(e *Entry, now, t1 eventsim.Time) bool {
	return e.Marked && now-e.MarkConfirmed > t1
}

func (r *Router) sendJoinSelf(c obs.Causal, ch addr.Channel) {
	c = r.node.Emit(c, obs.Event{Kind: obs.KindJoinSend, Channel: ch, Peer: ch.S, Detail: "branching-node self join"})
	softstate.SendJoin(r.node, &r.out.Join, c, packet.ProtoHBH, ch, false)
}

// onTree applies the tree rules of Figure 9(c).
func (r *Router) onTree(t *packet.Tree, c obs.Causal) netsim.Verdict {
	ch := t.Channel
	if t.R == r.node.Addr() {
		// Addressed to this router. Rule 1: a branching node discards
		// the message and regenerates one tree per non-stale entry. A
		// router without an MFT is being refreshed by stale upstream
		// state (it just un-branched); consuming silently lets that
		// state time out. Either way the router must never install
		// table entries for itself.
		st := r.chans[ch]
		if st == nil || st.mft == nil {
			return netsim.Consumed
		}
		now := r.clk.Now()
		if st.hasRegen && now-st.lastRegen < r.cfg.TreeInterval*9/10 {
			return netsim.Consumed
		}
		st.hasRegen = true
		st.lastRegen = now
		// Each regenerated tree attributes to the join episode that
		// installed or last refreshed its entry, not to the triggering
		// upstream refresh (see Entry.Cause).
		for _, e := range st.mft.Entries() {
			if e.Stale() {
				continue
			}
			softstate.SendTree(r.node, &r.out.Tree, e.Cause, packet.ProtoHBH, ch, e.Node, false, "branching-node regeneration")
		}
		return netsim.Consumed
	}

	st := r.chans[ch]
	if st == nil {
		st = &chanState{}
		r.chans[ch] = st
	}

	if st.mft != nil {
		if e := st.mft.Get(t.R); e != nil {
			// Rule 3: we hold R but see its tree transit (its joins do
			// not reach us, e.g. under asymmetric routing). Refresh and
			// remind the emitting upstream node via fusion, then claim
			// the downstream segment by forwarding the tree as our own:
			// nodes further down must fuse to us, the nearest branching
			// point, not to the original emitter.
			e.Timer.Refresh()
			revalidateMark(r.node, c, r.cfg.T1, ch, e)
			e.Cause = c
			r.sendFusion(c, ch, t.Src)
			t.Src = r.node.Addr()
			return netsim.Continue
		}
		// Rule 2: a new receiver's delivery path crosses this branching
		// node: adopt it and tell the emitting upstream node.
		r.node.Emit(c, obs.Event{Kind: obs.KindTreeAdopt, Channel: ch, Peer: t.R,
			Detail: "rule 2: delivery path crosses branching node"})
		r.addMFT(c, st, ch, t.R)
		r.sendFusion(c, ch, t.Src)
		t.Src = r.node.Addr()
		return netsim.Continue
	}

	if st.mct == nil {
		// Rule 4: first tree state at this router.
		r.createMCT(c, st, ch, t.R)
		return netsim.Continue
	}
	if st.mct.Node == t.R {
		// Rule 6: refresh.
		st.mct.Timer.Refresh()
		st.mct.Cause = c
		return netsim.Continue
	}
	if st.mct.Stale() {
		// Rule 7 (stale entry): the old target is going away; replace.
		r.removeMCT(c, st, ch)
		r.createMCT(c, st, ch, t.R)
		return netsim.Continue
	}
	if !r.cfg.EnableFusion {
		// Fusion ablation: a second live target crosses this router,
		// but without the fusion mechanism there is no way to announce
		// a branching point, so the router stays non-branching (the
		// duplicate copies this leaves on shared links are what the A1
		// ablation measures).
		return netsim.Continue
	}
	// Rule 8: two live targets cross this router: become a branching
	// node and announce the pair to the emitting upstream node.
	old := st.mct.Node
	oldCause := st.mct.Cause
	r.removeMCT(c, st, ch)
	st.mft = softstate.NewMFT()
	r.node.Emit(c, obs.Event{Kind: obs.KindBranch, Channel: ch, Peer: t.R, Detail: "rule 8: second live target"})
	if e := r.addMFT(c, st, ch, old); oldCause.Episode != 0 {
		// The first child keeps the provenance its MCT entry carried, so
		// its refresh chain stays attributed to its own join episode.
		e.Cause = oldCause
	}
	r.addMFT(c, st, ch, t.R)
	r.sendFusion(c, ch, t.Src)
	t.Src = r.node.Addr()
	return netsim.Continue
}

// onFusion applies the fusion rules of Figure 9(b): a fusion not
// addressed to this node is forwarded upstream (rule 1); an addressed
// (or matching) fusion marks the listed targets and installs the
// sender as the data-plane relay (rules 2-4).
//
// Acceptance is routing-verified: a target Ri is only handed over to
// Bp if Bp actually lies on this node's unicast forward path to Ri,
// which the router checks against its own routing table. Without this
// check, fusions travelling the reverse (receiver->source) paths can
// be accepted by nodes that are not upstream of Bp at all, splicing
// relay cycles into the data plane under asymmetric routing.
func (r *Router) onFusion(f *packet.Fusion, c obs.Causal) netsim.Verdict {
	if f.Bp == r.node.Addr() {
		// Our own fusion looped back (possible under pathological
		// routing); never install ourselves.
		return netsim.Consumed
	}
	if f.Dst != r.node.Addr() {
		// Rule 1: not addressed to us — simply forward. Intercepting
		// fusions in transit (even with matching table entries) steals
		// liveness refreshes meant for the true upstream branching node
		// and leaves parallel delivery chains alive.
		return netsim.Continue
	}
	st := r.chans[f.Channel]
	if st == nil || st.mft == nil {
		// Addressed to us, but we stopped being a branching node:
		// stale downstream state; let it time out.
		return netsim.Consumed
	}
	r.matched = acceptFusion(r.node, c, st.mft, f, r.matched[:0],
		func(node addr.Addr) *Entry { return r.addMFT(c, st, f.Channel, node) })
	return netsim.Consumed
}

// acceptFusion is what a fusion addressed to n does to n's table t —
// a branching router's MFT or the source's, the rules are the same.
// Targets Bp verifiably sits upstream of are handed over to it
// (applyFusion); with none, the fusion can still retract: marks
// pointing at Bp for members Bp no longer lists must lift even though
// nothing new matched (see retractFusion). addEntry installs a fresh
// entry in t. The matched entries are collected into the caller's
// scratch slice, returned for the next fusion to reuse. What the fusion
// changes is an effect of its cause c.
func acceptFusion(n netsim.ProtoNode, c obs.Causal, t *MFT, f *packet.Fusion, matched []*Entry,
	addEntry func(node addr.Addr) *Entry) []*Entry {
	for _, target := range f.Rs {
		e := t.Get(target)
		if e == nil || e.Node == f.Bp {
			continue
		}
		if !onForwardPath(n, n.ID(), f.Bp, target) {
			continue
		}
		matched = append(matched, e)
	}
	liftObs := func(node addr.Addr) {
		n.Emit(c, obs.Event{Kind: obs.KindMarkLift, Channel: f.Channel, Peer: node, Detail: "fusion no longer lists member"})
	}
	if len(matched) == 0 {
		retractFusion(t, f.Bp, f.Rs, liftObs)
		return matched
	}
	if n.Observer() != nil && fusionChanges(t, f.Bp, f.Rs, matched) {
		n.Emit(c, obs.Event{Kind: obs.KindFusionAccept, Channel: f.Channel, Peer: f.Bp,
			Detail: fmt.Sprintf("%d of %d targets handed to relay", len(matched), len(f.Rs))})
	}
	applyFusion(t, f.Bp, f.Rs, matched, n.Clock().Now(), addEntry, liftObs)
	return matched
}

// onForwardPath reports whether via lies strictly downstream of node
// from on the canonical unicast forwarding path from -> dst (both
// given as addresses). Membership is checked by walking the actual
// next-hop chain rather than by distance arithmetic: under equal-cost
// ties several nodes satisfy d(from,via)+d(via,dst) == d(from,dst)
// without being on the path packets really take, and accepting those
// would splice parallel delivery chains that duplicate traffic.
func onForwardPath(n netsim.ProtoNode, from topology.NodeID, via, dst addr.Addr) bool {
	g := n.Topology()
	vID, ok := g.ByAddr(via)
	if !ok || vID == from {
		return false
	}
	dID, ok := g.ByAddr(dst)
	if !ok {
		return false
	}
	rt := n.Routing()
	if !rt.Reachable(from, dID) {
		return false
	}
	for cur := from; cur != dID; {
		cur = rt.NextHop(cur, dID)
		if cur == topology.None {
			return false
		}
		if cur == vID {
			return true
		}
	}
	return false
}

// applyFusion is shared by Router and Source: mark the matched
// entries (rule 2) and install/refresh the branching candidate Bp with
// an expired t1 (rules 3 and 4). addEntry inserts a fresh entry, which
// is then forced stale.
//
// Two repair rules keep the mark/relay association consistent: a
// matched entry records Bp as its server, and any entry previously
// served by Bp that the fusion no longer lists is unmarked (Bp dropped
// it, so data must flow directly again). Every matched entry also has
// its MarkConfirmed stamped with now — the fusion is the mark's
// soft-state refresh (see markLapsed).
func applyFusion(t *MFT, bp addr.Addr, listed []addr.Addr, matched []*Entry,
	now eventsim.Time,
	addEntry func(node addr.Addr) *Entry,
	liftObs func(node addr.Addr)) {
	retractFusion(t, bp, listed, liftObs)
	for _, e := range matched {
		if t.Get(e.Node) != e {
			// The caller collected matched before handing control here;
			// an entry expired (or was replaced) in between must not be
			// resurrected by marking a dead row.
			continue
		}
		e.Marked = true
		e.ServedBy = bp
		e.MarkConfirmed = now
	}
	if e := t.Get(bp); e != nil {
		if e.Stale() {
			// Rule 4: keep t1 expired, push t2 out.
			e.Timer.RefreshDestroyOnly()
		} else {
			// Bp is also a regular (join-refreshed) child; a fusion is
			// a liveness signal for it either way.
			e.Timer.Refresh()
		}
		// A relay named by a fusion must carry data again even if an
		// earlier fusion from further upstream marked it.
		e.Marked = false
		e.ServedBy = addr.Unspecified
		return
	}
	addEntry(bp).Timer.ForceStale()
}

// fusionChanges reports whether applyFusion would actually alter the
// table: a new mark, a server reassignment, an unmark repair, or the
// relay entry's install/unmark. Steady-state fusions re-announcing an
// already-fused tree change nothing — the periodic message is a
// liveness refresh, and observing it as a FUSION-ACCEPT mutation every
// cycle would make a converged tree look like it never stops changing.
func fusionChanges(t *MFT, bp addr.Addr, listed []addr.Addr, matched []*Entry) bool {
	for _, e := range matched {
		if !e.Marked || e.ServedBy != bp {
			return true
		}
	}
	for _, e := range t.Entries() {
		if unlisted(e, bp, listed) {
			return true
		}
	}
	if e := t.Get(bp); e == nil || e.Marked {
		return true
	}
	return false
}

// retractFusion applies the retraction half of the fusion repair rule:
// every entry marked as served by bp that bp's latest fusion no longer
// lists is unmarked, so data flows to it directly again. This must run
// even when the fusion hands over nothing new — after routing churn
// strands a member, bp's own entry for it has expired, every target bp
// still lists is already served, and the member's stale mark is the
// only thing left standing between it and the data path. (The scenario
// fuzzer found exactly that steady state: a member starved forever
// behind a mark while its joins kept the marked entry alive.)
func retractFusion(t *MFT, bp addr.Addr, listed []addr.Addr, liftObs func(node addr.Addr)) int {
	lifted := 0
	for _, e := range t.Entries() {
		if unlisted(e, bp, listed) {
			e.Marked = false
			e.ServedBy = addr.Unspecified
			lifted++
			if liftObs != nil {
				liftObs(e.Node)
			}
		}
	}
	return lifted
}

// unlisted reports whether e is marked as served by bp although bp's
// fusion no longer lists it. The list is scanned, and only for the
// entries bp serves: a table-sized map per fusion cost more than the
// few comparisons it saved.
func unlisted(e *Entry, bp addr.Addr, listed []addr.Addr) bool {
	if !e.Marked || e.ServedBy != bp {
		return false
	}
	for _, n := range listed {
		if n == e.Node {
			return false
		}
	}
	return true
}

// unmarkServedBy lifts the marks of entries served by a relay that is
// going away.
func unmarkServedBy(t *MFT, relay addr.Addr) {
	if t == nil {
		return
	}
	for _, e := range t.Entries() {
		if e.Marked && e.ServedBy == relay {
			e.Marked = false
			e.ServedBy = addr.Unspecified
		}
	}
}

// onData forwards data packets addressed to this branching node: one
// rewritten copy per unmarked entry (recursive unicast). Transit data
// packets flow through on the normal unicast path. Two safety rails
// guard the data plane against transiently inconsistent soft state:
// a packet already replicated here is dropped (duplicate suppression),
// and no copy is sent back to the branching node it just came from
// (split horizon).
func (r *Router) onData(d *packet.Data, c obs.Causal) netsim.Verdict {
	if d.Dst != r.node.Addr() {
		return netsim.Continue
	}
	st := r.chans[d.Channel]
	hasMFT := st != nil && st.mft != nil
	hasLeaf := r.leaf != nil && r.leaf.Subscribed(d.Channel)
	if !hasMFT && !hasLeaf {
		// Data addressed to a router that is neither a branching node
		// nor a local-membership leaf for the channel: stale upstream
		// state. Drop by falling through to local delivery (routers
		// install no deliver sink).
		return netsim.Continue
	}
	if r.window(st, d.Channel).Seen(d.Seq) {
		return netsim.Consumed
	}
	if hasLeaf {
		r.leaf.deliverLocal(c, d)
	}
	if hasMFT {
		// The replication loop ranges over the table's live backing
		// slice. All send side effects are deferred events, so nothing
		// may mutate the table mid-loop; the version guard turns any
		// future violation of that into a loud failure instead of a
		// silently skipped or double-served entry.
		v := st.mft.Version()
		r.replica = *d
		r.replica.Src = r.node.Addr()
		for _, e := range st.mft.Entries() {
			if e.Marked || e.Node == d.Src {
				continue
			}
			if r.node.Observer() != nil { // an Event costs a copy to pass
				r.node.Emit(c, obs.Event{Kind: obs.KindReplicate, Channel: d.Channel, Peer: e.Node, Seq: d.Seq})
			}
			r.replica.Dst = e.Node
			r.node.Send(c, &r.replica)
		}
		r.replica.Payload = nil
		if st.mft.Version() != v {
			panic("core: MFT mutated during onData replication")
		}
	}
	return netsim.Consumed
}

// window returns ch's duplicate-suppression window: through the
// channel record when the router holds one (every branching node does),
// through the per-router map for a leaf-only subscription.
func (r *Router) window(st *chanState, ch addr.Channel) *softstate.Window {
	if st == nil {
		return r.seen.Window(ch)
	}
	return r.seen.Cached(&st.seen, ch)
}

// sendFusion announces this node as a branching candidate to the
// upstream node that emitted the triggering tree message. Appendix A
// addresses fusions to a node ("if the message is addressed to B ...")
// — the emitter of the tree being reacted to is the only upstream node
// the router actually knows. The fusion is an effect of c.
func (r *Router) sendFusion(c obs.Causal, ch addr.Channel, upstream addr.Addr) {
	if !r.cfg.EnableFusion {
		return
	}
	st := r.chans[ch]
	if st == nil || st.mft == nil || st.mft.Len() == 0 {
		return
	}
	if upstream == r.node.Addr() || !upstream.IsUnicast() {
		return
	}
	now := r.clk.Now()
	if st.hasFusion && now-st.lastFusion < r.cfg.TreeInterval*9/10 {
		return
	}
	st.hasFusion = true
	st.lastFusion = now
	c = r.node.Emit(c, obs.Event{Kind: obs.KindFusionSend, Channel: ch, Peer: upstream, Detail: "announce branching candidate"})
	f := &r.out.Fusion
	*f = packet.Fusion{
		Header: packet.Header{
			Proto:   packet.ProtoHBH,
			Type:    packet.TypeFusion,
			Channel: ch,
			Src:     r.node.Addr(),
			Dst:     upstream,
		},
		Bp: r.node.Addr(),
		Rs: st.mft.AppendNodes(f.Rs[:0]),
	}
	r.node.Send(c, f)
}

// addMFT inserts node into the channel's MFT, as an effect of c, with
// fresh timers wired to expiry cleanup.
func (r *Router) addMFT(c obs.Causal, st *chanState, ch addr.Channel, node addr.Addr) *Entry {
	timer := clock.NewSoftTimer(r.clk, r.cfg.T1, r.cfg.T2, nil, func() {
		r.expireMFT(st, ch, node)
	})
	e := st.mft.Add(node, timer)
	e.Cause = r.node.Emit(c, obs.Event{Kind: obs.KindTableAdd, Channel: ch, Peer: node, Detail: "mft"})
	return e
}

// expireMFT handles t2 expiry of an MFT entry: remove it, and collapse
// or destroy the table when it un-branches.
func (r *Router) expireMFT(st *chanState, ch addr.Channel, node addr.Addr) {
	if st.mft == nil || st.mft.Get(node) == nil {
		return
	}
	// Soft-state expiry fires from a timer: it is the spontaneous root
	// of its own causal episode (the member went silent), covering the
	// removal and any collapse it triggers.
	c := r.node.Root()
	st.mft.Remove(node)
	r.node.Emit(c, obs.Event{Kind: obs.KindTableRemove, Channel: ch, Peer: node, Detail: "mft"})
	// If the departed entry was a relay, the members it served must get
	// data directly again.
	unmarkServedBy(st.mft, node)
	switch {
	case st.mft.Len() == 0:
		st.mft = nil
		r.node.Emit(c, obs.Event{Kind: obs.KindCollapse, Channel: ch, Detail: "mft empty"})
		r.maybeDrop(ch, st)
	case st.mft.Len() == 1:
		// A single fresh entry means one live child chain: this node no
		// longer branches. Revert to control-plane state so the
		// upstream branching point re-adopts the child directly — the
		// "one more change" the paper accepts after a departure. A
		// stale or marked survivor stays: fusion-installed relays are
		// load-bearing for the data path.
		last := st.mft.Entries()[0]
		if !last.Stale() && !last.Marked {
			target := last.Node
			st.mft.Destroy()
			st.mft = nil
			r.node.Emit(c, obs.Event{Kind: obs.KindCollapse, Channel: ch, Peer: target, Detail: "single child chain"})
			r.createMCT(c, st, ch, target)
		}
	}
}

func (r *Router) createMCT(c obs.Causal, st *chanState, ch addr.Channel, node addr.Addr) {
	timer := clock.NewSoftTimer(r.clk, r.cfg.T1, r.cfg.T2, nil, func() {
		if st.mct != nil && st.mct.Node == node {
			// Timer-driven expiry roots its own episode (see expireMFT).
			r.removeMCT(r.node.Root(), st, ch)
			r.maybeDrop(ch, st)
		}
	})
	st.mct = &MCT{Node: node, Timer: timer}
	st.mct.Cause = r.node.Emit(c, obs.Event{Kind: obs.KindTableAdd, Channel: ch, Peer: node, Detail: "mct"})
}

func (r *Router) removeMCT(c obs.Causal, st *chanState, ch addr.Channel) {
	if st.mct == nil {
		return
	}
	st.mct.Timer.Cancel()
	st.mct = nil
	r.node.Emit(c, obs.Event{Kind: obs.KindTableRemove, Channel: ch, Detail: "mct"})
}

// maybeDrop garbage-collects empty channel state, including the
// duplicate-suppression window (see softstate.Dedup.Drop).
func (r *Router) maybeDrop(ch addr.Channel, st *chanState) {
	if st.mct == nil && st.mft == nil {
		delete(r.chans, ch)
		r.seen.Drop(ch)
	}
}
