package unicast

import "hbh/internal/topology"

// Widest-path (maximum-bottleneck) routing supports the QoS extension:
// the paper argues HBH "is suitable for an eventual implementation of
// Quality of Service based routing" precisely because it builds
// forward trees on whatever unicast tables the network uses. Swap the
// delay-shortest tables for widest-bandwidth tables and HBH members
// inherit maximum-bottleneck paths from the source; reverse-path
// protocols inherit the bottleneck of the wrong direction.

// WidestRouting is the maximum-bottleneck Router: tables selected for
// bottleneck bandwidth, with the resulting per-pair bottlenecks. Rows
// are indexed from*n + to in flat arrays. No query may be in flight
// while a recompute hook runs.
type WidestRouting struct {
	g *topology.Graph
	// next is the first hop of the selected path (topology.None when
	// unreachable or from == to), dist its additive cost (Infinity when
	// unreachable), bottleneck its narrowest link's bandwidth (0 when
	// unreachable or from == to).
	next             []topology.NodeID
	dist, bottleneck []int
	sc               *wpScratch
}

// ComputeWidest builds, for every ordered pair, a path maximising the
// bottleneck bandwidth, with ties broken by lower additive cost and
// then by node order (deterministic). NextHop and Dist report the next
// hops and additive cost of the SELECTED paths, so the tables plug into
// the simulator exactly like delay-based ones. One scratch heap serves
// every source.
func ComputeWidest(g *topology.Graph) *WidestRouting {
	n := g.NumNodes()
	w := &WidestRouting{
		g:          g,
		next:       make([]topology.NodeID, n*n),
		dist:       make([]int, n*n),
		bottleneck: make([]int, n*n),
		sc:         &wpScratch{heap: make([]wpItem, 0, n), done: make([]bool, n)},
	}
	w.Recompute()
	return w
}

// Recompute recomputes every widest-path row over the graph's current
// bandwidths, costs and link state.
func (w *WidestRouting) Recompute() {
	n := w.g.NumNodes()
	for s := 0; s < n; s++ {
		row := s * n
		widestInto(w.g, topology.NodeID(s), w.next[row:row+n], w.dist[row:row+n], w.bottleneck[row:row+n], w.sc)
	}
}

// RecomputeLinks reconverges after link up/down changes: a full
// Recompute, since no experiment drives faults over widest tables.
func (w *WidestRouting) RecomputeLinks(...[2]topology.NodeID) { w.Recompute() }

// RecomputeCostChanges reconverges after cost changes: a full
// Recompute.
func (w *WidestRouting) RecomputeCostChanges(...CostChange) { w.Recompute() }

// Graph returns the graph the tables are computed over.
func (w *WidestRouting) Graph() *topology.Graph { return w.g }

// NextHop returns the first hop of the selected path from -> to.
func (w *WidestRouting) NextHop(from, to topology.NodeID) topology.NodeID {
	return w.next[int(from)*w.g.NumNodes()+int(to)]
}

// Dist returns the additive cost of the selected path from -> to.
func (w *WidestRouting) Dist(from, to topology.NodeID) int {
	return w.dist[int(from)*w.g.NumNodes()+int(to)]
}

// Reachable reports whether to can be reached from from.
func (w *WidestRouting) Reachable(from, to topology.NodeID) bool {
	return w.Dist(from, to) != Infinity
}

// Bottleneck returns the selected path's narrowest directed bandwidth
// from -> to.
func (w *WidestRouting) Bottleneck(from, to topology.NodeID) int {
	return w.bottleneck[int(from)*w.g.NumNodes()+int(to)]
}

// Path returns the node sequence of the selected path from -> to.
func (w *WidestRouting) Path(from, to topology.NodeID) []topology.NodeID {
	return walkPath(w, from, to)
}

// PathLinks returns the selected path's directed links as (a, b) hops.
func (w *WidestRouting) PathLinks(from, to topology.NodeID) [][2]topology.NodeID {
	return walkPathLinks(w, from, to)
}

// wpItem orders the widest-path heap: wider bottleneck first, then
// cheaper cost, then lower node id.
type wpItem struct {
	node   topology.NodeID
	bottle int
	cost   int
}

// wpScratch is the reusable widest-path working state. The heap keeps
// the lazy-deletion discipline of the original container/heap version
// (duplicates allowed, stale entries skipped via done), just without
// the interface dispatch and per-push allocations.
type wpScratch struct {
	heap []wpItem
	done []bool
}

func wpBefore(a, b wpItem) bool {
	if a.bottle != b.bottle {
		return a.bottle > b.bottle
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.node < b.node
}

func (sc *wpScratch) push(it wpItem) {
	sc.heap = append(sc.heap, it)
	i := len(sc.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wpBefore(sc.heap[i], sc.heap[parent]) {
			break
		}
		sc.heap[i], sc.heap[parent] = sc.heap[parent], sc.heap[i]
		i = parent
	}
}

func (sc *wpScratch) pop() wpItem {
	h := sc.heap
	it := h[0]
	n := len(h) - 1
	h[0] = h[n]
	sc.heap = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && wpBefore(sc.heap[r], sc.heap[l]) {
			least = r
		}
		if !wpBefore(sc.heap[least], sc.heap[i]) {
			break
		}
		sc.heap[i], sc.heap[least] = sc.heap[least], sc.heap[i]
		i = least
	}
	return it
}

const maxInt = int(^uint(0) >> 1)

func widestInto(g *topology.Graph, s topology.NodeID, first []topology.NodeID, cost, bottle []int, sc *wpScratch) {
	for i := range first {
		first[i] = topology.None
		cost[i] = Infinity
		bottle[i] = 0
		sc.done[i] = false
	}
	bottle[s] = maxInt
	cost[s] = 0

	sc.heap = sc.heap[:0]
	sc.push(wpItem{node: s, bottle: maxInt, cost: 0})
	faulty := g.HasDownLinks()
	for len(sc.heap) > 0 {
		it := sc.pop()
		v := it.node
		if sc.done[v] {
			continue
		}
		sc.done[v] = true
		for _, nb := range g.Neighbors(v) {
			if faulty && !g.LinkUp(v, nb.To) {
				continue
			}
			bw := g.Bandwidth(v, nb.To)
			cand := min(bottle[v], bw)
			nc := AddDist(cost[v], nb.Cost)
			better := cand > bottle[nb.To] ||
				(cand == bottle[nb.To] && nc < cost[nb.To])
			if !better || sc.done[nb.To] {
				continue
			}
			bottle[nb.To] = cand
			cost[nb.To] = nc
			if v == s {
				first[nb.To] = nb.To
			} else {
				first[nb.To] = first[v]
			}
			sc.push(wpItem{node: nb.To, bottle: cand, cost: nc})
		}
	}
	bottle[s] = 0
}
