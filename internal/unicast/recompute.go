package unicast

import "hbh/internal/topology"

// This file implements routing reconvergence after topology changes
// (link failures and repairs injected by the faults layer). The tables
// are mutated in place, so every layer holding a *Routing — netsim,
// the protocol engines' forward-path checks — observes the converged
// tables at once, exactly as if the unicast IGP had finished
// reconverging.

// Recompute rebuilds every routing table over the graph's current
// costs and link state. Dijkstra runs from every node except the
// derived leaves, whose rows are then filled from their neighbours'
// (see deriveLeafRow); on the paper topologies half the nodes are
// hosts, so this halves the searches. Two passes over the nodes, rather
// than a list of leaves, keep reconvergence allocation-free: the tables
// and the Dijkstra heap are reused in place.
func (r *Routing) Recompute() {
	if r.scratch == nil {
		// Routings assembled row-by-row (ComputeWidest's embedded
		// tables) lack the shared scratch; build it on first use.
		r.scratch = newSPTScratch(len(r.next))
	}
	for s := range r.next {
		if !r.derivedLeaf(topology.NodeID(s)) {
			dijkstraInto(r.g, topology.NodeID(s), r.next[s], r.dist[s], r.scratch)
		}
	}
	for s := range r.next {
		if r.derivedLeaf(topology.NodeID(s)) {
			r.deriveLeafRow(topology.NodeID(s))
		}
	}
}

// derivedLeaf reports whether v's row is derived from its neighbour's
// rather than searched: v is a leaf and its neighbour is not (two
// leaves joined to each other would each wait on the other's row).
func (r *Routing) derivedLeaf(v topology.NodeID) bool {
	nbs := r.g.Neighbors(v)
	return len(nbs) == 1 && !isLeaf(r.g, nbs[0].To)
}

// deriveLeafRow fills leaf's row from its neighbour's finished row.
// Every path out of a leaf starts on its one link, and no shortest path
// from the neighbour passes back through the leaf, so the search from
// the leaf would find: first hop = the neighbour for every reachable
// destination, distance = the neighbour's distance plus the cost of
// leaf -> neighbour, and nothing reachable at all when that link is
// down.
func (r *Routing) deriveLeafRow(leaf topology.NodeID) {
	nb := r.g.Neighbors(leaf)[0]
	first, dist := r.next[leaf], r.dist[leaf]
	up := r.g.LinkUp(leaf, nb.To)
	for x, d := range r.dist[nb.To] {
		if !up || d == Infinity {
			first[x], dist[x] = topology.None, Infinity
			continue
		}
		first[x], dist[x] = nb.To, AddDist(d, nb.Cost)
	}
	first[leaf], dist[leaf] = topology.None, 0
}

// RecomputeLinks reconverges the tables after the given undirected
// links changed state (went down or came back up). Only dirty sources
// are recomputed: a source s is dirty for a changed link iff one of
// the link's directions lies on some current shortest path from s
// (relevant when the link went down) or could now provide an equal or
// shorter path (relevant when it came up). Both tests run against the
// pre-change tables, which is sound either way:
//
//   - removal of a link with dist(s,u) + c(u,v) > dist(s,v) strictly
//     cannot change any final distance or deterministic tie-break, and
//   - an added link failing the same test never wins or ties a
//     relaxation, so the tables s would recompute are bit-identical.
//
// Dirty sources get a full Dijkstra, so the result always equals a
// full Recompute — this is purely a work-avoidance path (on the
// evaluation topologies a single link cut typically dirties a fraction
// of the sources). Call after the graph's link state has been updated.
func (r *Routing) RecomputeLinks(changed ...[2]topology.NodeID) {
	if r.scratch == nil {
		r.scratch = newSPTScratch(len(r.next))
	}
	for s := range r.next {
		src := topology.NodeID(s)
		for _, l := range changed {
			if r.linkMayAffect(src, l[0], l[1]) || r.linkMayAffect(src, l[1], l[0]) {
				dijkstraInto(r.g, src, r.next[s], r.dist[s], r.scratch)
				break
			}
		}
	}
}

// linkMayAffect reports whether the directed link u -> v can be on, or
// can improve/tie, a shortest path from s, judged by the current
// (pre-change) tables.
func (r *Routing) linkMayAffect(s, u, v topology.NodeID) bool {
	du := r.dist[s][u]
	if du == Infinity {
		return false
	}
	c := r.g.Cost(u, v)
	if c == 0 {
		return false
	}
	return AddDist(du, c) <= r.dist[s][v]
}
