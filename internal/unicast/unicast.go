// Package unicast implements the unicast routing substrate: per-node
// shortest-path routing tables computed with Dijkstra over the directed
// link costs.
//
// Because the two directions of a link carry independent costs, the
// shortest path from A to B generally differs from the reverse of the
// shortest path from B to A. This asymmetry is the central phenomenon
// the paper studies: every multicast protocol in the reproduction
// forwards packets (and control messages) along these tables, and the
// difference between forward shortest-path trees (HBH) and reverse
// shortest-path trees (PIM) falls out of it.
package unicast

import (
	"fmt"
	"math"
	"slices"

	"hbh/internal/topology"
)

// Infinity is the distance reported for unreachable destinations.
const Infinity = math.MaxInt

// AddDist adds two distances, saturating at Infinity so that sums
// involving an unreachable leg can never overflow into a small (or
// negative) "reachable" value. Use it whenever combining Dist results
// or extending a distance by a link cost that might be Infinity.
func AddDist(a, b int) int {
	if a == Infinity || b == Infinity || a > Infinity-b {
		return Infinity
	}
	return a + b
}

// Routing holds the full set of unicast routing tables for one graph:
// for every ordered pair (from, to), the next hop on and the total cost
// of the shortest directed path from -> to. Tables are computed eagerly
// by Compute; after mutating costs or link state call Recompute (all
// sources) or RecomputeLinks (only the sources a changed link can have
// affected) to converge them again.
//
// The per-source rows are views into two flat contiguous backing
// arrays, and the Dijkstra working state (indexed heap, positions) is
// retained on the Routing and reused, so Recompute/RecomputeLinks run
// allocation-free — the experiment sweeps recompute tables hundreds of
// thousands of times.
type Routing struct {
	g *topology.Graph
	// next[from][to] is the first hop on the shortest path from->to,
	// topology.None when unreachable or from == to. Rows alias nextFlat.
	next [][]topology.NodeID
	// dist[from][to] is the cost of that path, Infinity if unreachable.
	// Rows alias distFlat.
	dist [][]int

	nextFlat []topology.NodeID
	distFlat []int
	scratch  *sptScratch
}

// Compute builds routing tables for g by running Dijkstra over the
// directed costs (from every node but the leaves whose rows Recompute
// derives from a neighbour's). Ties are broken deterministically
// (lowest finalisation order by (distance, node ID)), so two runs over
// identical costs produce identical tables — required for reproducible
// experiments.
func Compute(g *topology.Graph) *Routing {
	n := g.NumNodes()
	r := &Routing{
		g:        g,
		next:     make([][]topology.NodeID, n),
		dist:     make([][]int, n),
		nextFlat: make([]topology.NodeID, n*n),
		distFlat: make([]int, n*n),
		scratch:  newSPTScratch(n),
	}
	for s := 0; s < n; s++ {
		r.next[s] = r.nextFlat[s*n : (s+1)*n : (s+1)*n]
		r.dist[s] = r.distFlat[s*n : (s+1)*n : (s+1)*n]
	}
	r.Recompute()
	return r
}

// sptScratch is the reusable Dijkstra working state: an indexed 4-ary
// min-heap of frontier nodes with decrease-key support. One instance
// serves every source of a Routing in turn (a Routing is never
// recomputed concurrently), so per-source runs allocate nothing.
//
// The shape is chosen for the memory system, not for elegance — at
// five-figure node counts the frontier is tens of thousands of entries
// and the heap is the whole cost of the substrate:
//
//   - Entries carry their own (distance, node) key rather than
//     indexing into the caller's dist array, whose random reads (two
//     per comparison, megabytes apart) otherwise dominate.
//   - 4-ary halves the sift depth of a binary heap, and the four
//     children of a node share one 64-byte cache line.
//   - Sifting moves a hole instead of swapping, so each level costs
//     one entry copy and one pos write rather than two of each.
//
// None of this changes results: pop returns the minimum of the current
// frontier under the strict total order (distance, node ID), which is
// independent of heap arity and sift strategy, so the pop sequence —
// and hence every routing table — is bit-identical to the original
// binary-heap implementation.
type sptItem struct {
	d int
	v topology.NodeID
}

type sptScratch struct {
	heap []sptItem
	// pos[v] is v's index in heap, -1 when not queued. int32 keeps the
	// array compact; topologies are far below 2^31 nodes. A completed
	// Dijkstra run pops every entry it pushed, restoring all -1s, so
	// runs never need to re-clear it.
	pos []int32
	// buckets and live are the Dial bucket-queue working state (see
	// dial). Each run drains every bucket it fills, so they need no
	// per-run clearing either.
	buckets [][]topology.NodeID
	live    []topology.NodeID
}

func newSPTScratch(n int) *sptScratch {
	sc := &sptScratch{heap: make([]sptItem, 0, n), pos: make([]int32, n)}
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	return sc
}

// less orders frontier entries by (tentative distance, node ID) — the
// same deterministic tie-break the container/heap implementation used.
func less(a, b sptItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}

// fix inserts v with distance d, or applies a decrease-key and
// restores its heap position (Dijkstra relaxations only ever lower a
// tentative distance, so a sift-up suffices).
func (sc *sptScratch) fix(v topology.NodeID, d int) {
	i := int(sc.pos[v])
	if i < 0 {
		sc.heap = append(sc.heap, sptItem{})
		i = len(sc.heap) - 1
	}
	it := sptItem{d: d, v: v}
	h := sc.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !less(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		sc.pos[h[i].v] = int32(i)
		i = parent
	}
	h[i] = it
	sc.pos[v] = int32(i)
}

// pop removes and returns the minimum frontier node.
func (sc *sptScratch) pop() topology.NodeID {
	h := sc.heap
	v := h[0].v
	sc.pos[v] = -1
	n := len(h) - 1
	it := h[n]
	sc.heap = h[:n]
	if n == 0 {
		return v
	}
	// Sift the displaced last entry down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		least := c
		for j := c + 1; j < end; j++ {
			if less(h[j], h[least]) {
				least = j
			}
		}
		if !less(h[least], it) {
			break
		}
		h[i] = h[least]
		sc.pos[h[i].v] = int32(i)
		i = least
	}
	h[i] = it
	sc.pos[it.v] = int32(i)
	return v
}

// dijkstraInto computes, for source s, the first hop and distance of
// the shortest directed path s -> x for every x, writing the results
// into the caller's rows. With decrease-key every node enters the heap
// at most once and is final when popped; the pop order over the unique
// key (distance, node ID) is identical to the previous lazy-deletion
// implementation, so the resulting tables are bit-identical.
//
// A leaf (a degree-1 node, such as every host) other than s gets its
// label but is never queued. Its one link leads back to the neighbour
// that labelled it, and costs are >= 1, so popping it could not lower
// any label; skipping it changes no label and no pop. (s itself is
// never relaxed: its label is 0 and every relaxation is >= 1.)
func dijkstraInto(g *topology.Graph, s topology.NodeID, first []topology.NodeID, dist []int, sc *sptScratch) {
	for i := range dist {
		dist[i] = Infinity
		first[i] = topology.None
	}
	dist[s] = 0

	// Every graph enforces costs >= 1 (AddLink/SetLinkCost panic
	// otherwise), so the bucket-queue scan is always correct; it only
	// needs the cost bound to be small enough to size its circular
	// bucket array. That covers every topology in the repo — the heap
	// is the fallback for synthetic graphs with huge costs.
	if mc := g.MaxLinkCost(); mc > 0 && mc <= dialMaxCost {
		sc.dial(g, s, first, dist, mc)
		return
	}

	sc.heap = sc.heap[:0]
	sc.fix(s, 0)

	// Existence is structural (neighbors come from the adjacency), so
	// only the fault state needs checking — LinkEnabled's existence
	// scan would cost O(deg) per relaxed edge, quadratic in degree on
	// power-law hubs. And when no link is down (the overwhelmingly
	// common case) the per-edge check is hoisted out entirely.
	faulty := g.HasDownLinks()
	for len(sc.heap) > 0 {
		v := sc.pop()
		dv := dist[v]
		for _, nb := range g.Neighbors(v) {
			if faulty && !g.LinkUp(v, nb.To) {
				continue
			}
			nd := AddDist(dv, nb.Cost)
			if nd < dist[nb.To] {
				dist[nb.To] = nd
				if v == s {
					first[nb.To] = nb.To
				} else {
					first[nb.To] = first[v]
				}
				if !isLeaf(g, nb.To) {
					sc.fix(nb.To, nd)
				}
			}
		}
	}
}

// isLeaf reports whether v has exactly one link. A leaf's down link
// still counts: it is a leaf of the structural graph, and with its link
// down nothing reaches it at all.
func isLeaf(g *topology.Graph, v topology.NodeID) bool {
	return len(g.Neighbors(v)) == 1
}

// dialMaxCost is the largest per-link cost for which dijkstraInto uses
// the Dial bucket queue; its circular array holds maxCost+1 buckets.
const dialMaxCost = 1 << 12

// dial is the bucket-queue (Dial's algorithm) shortest-path scan used
// when link costs are small positive integers — every real topology
// here draws costs in [1,10]. Frontier nodes live in a circular array
// of maxCost+1 distance-indexed buckets; processing distances in
// increasing order replaces every comparison-heap operation (and its
// cache-missing sift walks) with an append and a filter pass.
//
// Pop order is identical to the heap's: because all costs are >= 1, a
// relaxation from a distance-d node can only push entries at d+1 or
// beyond, so bucket d is complete before its first entry is processed
// — sorting it by node ID then yields exactly the strict (distance,
// node ID) total order. Decrease-key is lazy: the old entry stays in
// its bucket and is dropped by the dist[v] == d liveness check when
// its distance comes up. Stale entries from earlier wraps of the
// circular array fail the same check.
func (sc *sptScratch) dial(g *topology.Graph, s topology.NodeID, first []topology.NodeID, dist []int, maxCost int) {
	size := maxCost + 1
	if len(sc.buckets) < size {
		sc.buckets = make([][]topology.NodeID, size)
	}
	buckets := sc.buckets
	faulty := g.HasDownLinks()
	buckets[0] = append(buckets[0], s)
	remaining := 1
	for d := 0; remaining > 0; d++ {
		slot := d % size
		b := buckets[slot]
		if len(b) == 0 {
			continue
		}
		live := sc.live[:0]
		for _, v := range b {
			if dist[v] == d {
				live = append(live, v)
			}
		}
		remaining -= len(b)
		buckets[slot] = b[:0]
		slices.Sort(live)
		for _, v := range live {
			for _, nb := range g.Neighbors(v) {
				if faulty && !g.LinkUp(v, nb.To) {
					continue
				}
				nd := d + nb.Cost
				if nd < dist[nb.To] {
					dist[nb.To] = nd
					if v == s {
						first[nb.To] = nb.To
					} else {
						first[nb.To] = first[v]
					}
					if !isLeaf(g, nb.To) {
						buckets[nd%size] = append(buckets[nd%size], nb.To)
						remaining++
					}
				}
			}
		}
		sc.live = live[:0]
	}
}

// NextHop returns the first hop on the shortest path from -> to.
// Returns topology.None when from == to or to is unreachable.
func (r *Routing) NextHop(from, to topology.NodeID) topology.NodeID {
	return r.next[from][to]
}

// Dist returns the cost of the shortest directed path from -> to
// (0 when from == to, Infinity when unreachable).
func (r *Routing) Dist(from, to topology.NodeID) int {
	return r.dist[from][to]
}

// Reachable reports whether to can be reached from from.
func (r *Routing) Reachable(from, to topology.NodeID) bool {
	return r.dist[from][to] != Infinity
}

// Path returns the node sequence of the shortest directed path
// from -> to, inclusive of both endpoints. Returns nil when to is
// unreachable; returns [from] when from == to.
func (r *Routing) Path(from, to topology.NodeID) []topology.NodeID {
	if from == to {
		return []topology.NodeID{from}
	}
	if !r.Reachable(from, to) {
		return nil
	}
	path := []topology.NodeID{from}
	cur := from
	for cur != to {
		nxt := r.next[cur][to]
		if nxt == topology.None {
			panic(fmt.Sprintf("unicast: broken table %d->%d at %d", from, to, cur))
		}
		path = append(path, nxt)
		cur = nxt
	}
	return path
}

// PathLinks returns the directed links of the shortest path from -> to
// as (a, b) hops. Nil when unreachable or from == to.
func (r *Routing) PathLinks(from, to topology.NodeID) [][2]topology.NodeID {
	p := r.Path(from, to)
	if len(p) < 2 {
		return nil
	}
	links := make([][2]topology.NodeID, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		links = append(links, [2]topology.NodeID{p[i], p[i+1]})
	}
	return links
}

// Asymmetric reports whether the shortest path a -> b differs from the
// reverse of the shortest path b -> a, node-by-node. This is the
// paper's notion of a routing asymmetry between two sites.
func (r *Routing) Asymmetric(a, b topology.NodeID) bool {
	fwd := r.Path(a, b)
	rev := r.Path(b, a)
	if len(fwd) != len(rev) {
		return true
	}
	for i := range fwd {
		if fwd[i] != rev[len(rev)-1-i] {
			return true
		}
	}
	return false
}

// AsymmetryFraction returns the fraction of ordered router pairs whose
// forward and reverse shortest paths differ. Diagnostic used by the
// asymmetry-sweep experiment and by tests that validate the substrate
// actually produces asymmetric routes (Paxson's measurements motivate
// the paper; ~30-50% of pairs asymmetric is realistic).
func (r *Routing) AsymmetryFraction() float64 {
	routers := r.g.Routers()
	pairs, asym := 0, 0
	for i, a := range routers {
		for _, b := range routers[i+1:] {
			pairs++
			if r.Asymmetric(a, b) {
				asym++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(asym) / float64(pairs)
}

// Graph returns the graph these tables were computed over.
func (r *Routing) Graph() *topology.Graph { return r.g }
