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

// sptScratch is the reusable Dijkstra working state: an indexed 4-ary
// min-heap of frontier nodes with decrease-key support. One instance
// serves every source of a Routing in turn (fills run under its write
// lock), so per-source runs allocate nothing.
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
