package unicast

import "hbh/internal/topology"

// This file implements routing reconvergence after topology changes
// (link failures and repairs injected by the faults layer, cost churn).
// A hook drops every filled row the change may have made stale; each
// refills over the updated graph on its next query, so every layer
// holding the router — netsim, the protocol engines' forward-path
// checks — observes converged routes at once, exactly as if the unicast
// IGP had finished reconverging. Unfilled rows need nothing: they have
// no stale state to fix.

// CostChange records one undirected link whose directed costs were
// rewritten (topology.SetLinkCost), carrying the pre-change costs. The
// old costs matter: the stale-row test must consider the cheaper of
// the old and new cost per direction to stay sound for cost
// *increases*.
type CostChange struct {
	A, B topology.NodeID
	// OldAB is the pre-change cost of A -> B, OldBA of B -> A.
	OldAB, OldBA int
}

// Recompute drops every filled row; each refills over the current
// graph on its next query.
func (r *Routing) Recompute() {
	r.dropIf(func(*row) bool { return true })
}

// RecomputeLinks reconverges after the given undirected links changed
// state (went down or came back up). A row is stale for a changed link
// iff one of the link's directions lies on one of its shortest paths
// (relevant when the link went down) or could now provide an equal or
// shorter path (relevant when it came up): mayAffect with the current
// cost. Both tests run against the pre-change row, which is sound
// either way:
//
//   - removal of a link with dist(s,u) + c(u,v) > dist(s,v) strictly
//     cannot change any final distance or deterministic tie-break, and
//   - an added link failing the same test never wins or ties a
//     relaxation, so the row s would recompute is bit-identical.
//
// On the evaluation topologies a single link cut typically drops a
// fraction of the rows. Call after the graph's link state has been
// updated.
func (r *Routing) RecomputeLinks(changed ...[2]topology.NodeID) {
	r.dropIf(func(rw *row) bool {
		for _, l := range changed {
			if r.mayAffect(rw, l[0], l[1], 0) || r.mayAffect(rw, l[1], l[0], 0) {
				return true
			}
		}
		return false
	})
}

// RecomputeCostChanges reconverges after the given links' costs were
// rewritten in the graph. The stale test for a changed direction u -> v
// uses min(oldCost, newCost):
//
//   - if the cost increased, the link can only matter when it was on a
//     (or tied for a) shortest path before, i.e. dist(s,u) + old <=
//     dist(s,v) — testing with the larger new cost would wrongly keep
//     rows whose best path just got worse;
//   - if the cost decreased, the link can only matter when it now wins
//     or ties a relaxation, i.e. dist(s,u) + new <= dist(s,v);
//
// and min(old, new) covers whichever case applies, so a row failing
// the test would recompute bit-identical. Call after the graph's costs
// have been updated.
func (r *Routing) RecomputeCostChanges(changes ...CostChange) {
	r.dropIf(func(rw *row) bool {
		for _, ch := range changes {
			if r.mayAffect(rw, ch.A, ch.B, ch.OldAB) || r.mayAffect(rw, ch.B, ch.A, ch.OldBA) {
				return true
			}
		}
		return false
	})
}

// dropIf drops, under the write lock, every filled row stale reports.
func (r *Routing) dropIf(stale func(*row) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.rows {
		if rw := &r.rows[s]; rw.ready.Load() && stale(rw) {
			r.dropLocked(topology.NodeID(s))
			r.invalidations++
		}
	}
}

// mayAffect reports whether the directed link u -> v can be on, or can
// improve or tie, a shortest path of the pre-change row rw, taking the
// link's cost as min(old, current); old = 0 means the current cost.
// A missing link (cost 0) affects nothing.
func (r *Routing) mayAffect(rw *row, u, v topology.NodeID, old int) bool {
	du := rw.dist[u]
	if du == Infinity {
		return false
	}
	c := r.g.Cost(u, v)
	if c == 0 || (old > 0 && old < c) {
		c = old
	}
	if c == 0 {
		return false
	}
	return AddDist(du, c) <= rw.dist[v]
}
