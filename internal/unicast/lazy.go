package unicast

import (
	"sync"
	"sync/atomic"

	"hbh/internal/topology"
)

// This file implements the on-demand per-source routing substrate. New
// picks it at FastPathThreshold nodes and above; at any size the
// many-channel runtime (A14 and its benchmark workload) and A12's
// LazyRouting cells build it directly. Instead of materialising all n
// sources eagerly (O(n²) memory — ~20 GB of distFlat alone at 50k
// routers), a Lazy router computes a source's row with the same 0-alloc
// Dijkstra on first query and keeps the most recently used rows in a
// bounded LRU. Invalidation after cost churn and link up/down events is
// per-source: each *cached* row is tested with the identical
// may-affect predicates the eager tables use, and only affected rows
// are dropped (to be recomputed on next touch). Sources not in the
// cache need nothing — their next query runs Dijkstra over the already
// updated graph. Because dijkstraInto breaks ties deterministically, a
// row is bit-identical however it came to exist: computed fresh, kept
// across an invalidation it survived, or recomputed after an eviction.

// DefaultLazyBudgetBytes is the approximate memory budget the default
// LRU capacity is derived from: capacity = budget / (16 bytes × n),
// clamped to [64, 4096] rows. At n = 100k a row is 1.6 MB, giving ~671
// cached sources — comfortably more than any single experiment routes
// concurrently, and ~1 GiB resident worst case.
const DefaultLazyBudgetBytes = 1 << 30

// lazyRowBytes is the per-node size of one cached row: an 8-byte next
// hop plus an 8-byte distance.
const lazyRowBytes = 16

// LazyOptions configures NewLazy.
type LazyOptions struct {
	// MaxSources caps the number of cached per-source rows. 0 derives
	// the cap from DefaultLazyBudgetBytes and the graph size.
	MaxSources int
}

// LazyStats counts cache traffic on a Lazy router, for benchmarks and
// the A13 scale report. Under concurrent readers the counters are a
// consistent snapshot of monotone atomics, but hit/miss attribution of
// racing queries for the same uncached source is scheduling-dependent;
// the routing answers themselves never are.
type LazyStats struct {
	Hits          uint64 // queries answered from a cached row
	Misses        uint64 // queries that ran a fresh Dijkstra
	Evictions     uint64 // rows dropped for capacity
	Invalidations uint64 // rows dropped by recompute hooks
	Cached        int    // rows currently resident
}

// Lazy is the on-demand Router implementation: per-source rows computed
// with dijkstraInto on first query, cached in an LRU, invalidated
// per-source by the recompute hooks.
//
// Unlike *Routing, Lazy is safe for concurrent queries: the sharded
// many-channel runtime hands one Lazy to every worker. Queries take a
// read lock on the fast path (cached row) and only escalate to the
// write lock to run a Dijkstra; the recompute hooks take the write
// lock, so invalidation may be called concurrently with queries.
// Mutating the underlying graph still requires quiescence: no query or
// hook may be in flight while costs or link states change (the shard
// barrier in the runtime provides exactly that window).
type Lazy struct {
	g          *topology.Graph
	maxSources int

	// mu guards rows, cached, free and scratch. A row's next/dist slices
	// are only dereferenced while holding mu (either mode): dropped rows
	// are recycled through free, and recycling happens under the write
	// lock, so a reader inside the lock can never observe a row being
	// recomputed in place.
	mu sync.RWMutex
	// rows holds the cached row of every source, indexed by NodeID (nil
	// when not resident): a hit is a slice load, not a map lookup.
	rows   []*lazyRow
	cached int // non-nil rows
	// free recycles evicted/invalidated row storage so steady-state
	// cache churn allocates nothing.
	free    []*lazyRow
	scratch *sptScratch

	// clock stamps LRU touches. Atomic so the read-locked fast path
	// can bump it without escalating to the write lock.
	clock                                  atomic.Uint64
	hits, misses, evictions, invalidations atomic.Uint64
}

// lazyRow is one source's routing row: the same next/dist vectors an
// eager table holds for that source, plus the LRU timestamp (atomic,
// written by read-locked queries).
type lazyRow struct {
	next []topology.NodeID
	dist []int
	used atomic.Uint64
}

// NewLazy builds an on-demand router over g. No routes are computed
// until queried.
func NewLazy(g *topology.Graph, opts LazyOptions) *Lazy {
	n := g.NumNodes()
	max := opts.MaxSources
	if max <= 0 {
		max = DefaultLazyBudgetBytes / (lazyRowBytes * n)
		if max < 64 {
			max = 64
		}
		if max > 4096 {
			max = 4096
		}
	}
	return &Lazy{
		g:          g,
		maxSources: max,
		rows:       make([]*lazyRow, n),
		scratch:    newSPTScratch(n),
	}
}

// fill answers a query whose source had no cached row: under the write
// lock it re-checks (another goroutine may have filled the row in the
// window between the locks), computes, and reads both of to's elements
// inside the lock, so the row cannot be recycled under the read.
func (l *Lazy) fill(s, to topology.NodeID) (topology.NodeID, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rw := l.rowLocked(s)
	return rw.next[to], rw.dist[to]
}

// rowLocked returns s's routing row, computing it (and evicting the
// least recently used row if at capacity) on a miss. Caller must hold
// the write lock.
func (l *Lazy) rowLocked(s topology.NodeID) *lazyRow {
	if rw := l.rows[s]; rw != nil {
		rw.used.Store(l.clock.Add(1))
		l.hits.Add(1)
		return rw
	}
	l.misses.Add(1)
	if l.cached >= l.maxSources {
		l.evictOldest()
	}
	rw := l.takeRow()
	dijkstraInto(l.g, s, rw.next, rw.dist, l.scratch)
	rw.used.Store(l.clock.Add(1))
	l.rows[s] = rw
	l.cached++
	return rw
}

// takeRow returns row storage from the free list, or allocates it.
// Caller must hold the write lock.
func (l *Lazy) takeRow() *lazyRow {
	if n := len(l.free); n > 0 {
		rw := l.free[n-1]
		l.free = l.free[:n-1]
		return rw
	}
	n := l.g.NumNodes()
	return &lazyRow{next: make([]topology.NodeID, n), dist: make([]int, n)}
}

// evictOldest drops the least recently used row. A linear scan of the
// node index is fine: an eviction is always paired with a fresh
// Dijkstra over the same nodes, which dwarfs the scan. Caller must hold
// the write lock.
func (l *Lazy) evictOldest() {
	var victim topology.NodeID = topology.None
	var oldest uint64
	for s, rw := range l.rows {
		if rw == nil {
			continue
		}
		if u := rw.used.Load(); victim == topology.None || u < oldest {
			victim, oldest = topology.NodeID(s), u
		}
	}
	if victim == topology.None {
		return
	}
	l.removeLocked(victim)
	l.evictions.Add(1)
}

// dropLocked invalidates s's cached row. Caller must hold the write
// lock.
func (l *Lazy) dropLocked(s topology.NodeID) {
	l.removeLocked(s)
	l.invalidations.Add(1)
}

// removeLocked takes s's resident row out of the cache, recycling its
// storage. Caller must hold the write lock.
func (l *Lazy) removeLocked(s topology.NodeID) {
	l.free = append(l.free, l.rows[s])
	l.rows[s] = nil
	l.cached--
}

// NextHop returns the first hop on the shortest path from -> to. A hit
// touches the cached row under the read lock; the element is read
// inside the lock, so the row cannot be recycled under it.
func (l *Lazy) NextHop(from, to topology.NodeID) topology.NodeID {
	l.mu.RLock()
	if rw := l.rows[from]; rw != nil {
		next := rw.next[to]
		rw.used.Store(l.clock.Add(1))
		l.mu.RUnlock()
		l.hits.Add(1)
		return next
	}
	l.mu.RUnlock()
	next, _ := l.fill(from, to)
	return next
}

// Dist returns the cost of the shortest directed path from -> to, by
// the same two paths as NextHop.
func (l *Lazy) Dist(from, to topology.NodeID) int {
	l.mu.RLock()
	if rw := l.rows[from]; rw != nil {
		dist := rw.dist[to]
		rw.used.Store(l.clock.Add(1))
		l.mu.RUnlock()
		l.hits.Add(1)
		return dist
	}
	l.mu.RUnlock()
	_, dist := l.fill(from, to)
	return dist
}

// Reachable reports whether to can be reached from from.
func (l *Lazy) Reachable(from, to topology.NodeID) bool {
	return l.Dist(from, to) != Infinity
}

// Path returns the node sequence of the shortest directed path
// from -> to. Each intermediate node's row is materialised (and
// cached) along the way — the same rows per-hop forwarding of a packet
// on that path would touch.
func (l *Lazy) Path(from, to topology.NodeID) []topology.NodeID {
	return walkPath(l, from, to)
}

// PathLinks returns the path's directed links as (a, b) hops.
func (l *Lazy) PathLinks(from, to topology.NodeID) [][2]topology.NodeID {
	return walkPathLinks(l, from, to)
}

// Recompute drops every cached row; each recomputes over the current
// graph on its next query. Equivalent to the eager full reconvergence.
func (l *Lazy) Recompute() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s, rw := range l.rows {
		if rw != nil {
			l.dropLocked(topology.NodeID(s))
		}
	}
}

// RecomputeLinks invalidates cached rows after the given undirected
// links changed up/down state. A cached row holds pre-change tables, so
// the eager path's dirty-source predicate applies verbatim: source s is
// affected iff some changed direction u -> v satisfies
// dist(s,u) + c(u,v) <= dist(s,v) in s's cached row (see
// Routing.RecomputeLinks for the soundness argument in both the
// link-down and link-up cases). Affected rows are dropped rather than
// recomputed — the next query pays the Dijkstra. Uncached sources need
// nothing: they have no stale state to fix.
func (l *Lazy) RecomputeLinks(changed ...[2]topology.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s, rw := range l.rows {
		if rw == nil {
			continue
		}
		for _, ch := range changed {
			if l.linkMayAffect(rw, ch[0], ch[1]) || l.linkMayAffect(rw, ch[1], ch[0]) {
				l.dropLocked(topology.NodeID(s))
				break
			}
		}
	}
}

// RecomputeCostChanges invalidates cached rows after the given links'
// costs were rewritten, using the eager path's min(old, new) predicate
// per direction (see Routing.RecomputeCostChanges).
func (l *Lazy) RecomputeCostChanges(changes ...CostChange) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s, rw := range l.rows {
		if rw == nil {
			continue
		}
		for _, ch := range changes {
			if l.costChangeMayAffect(rw, ch.A, ch.B, ch.OldAB) ||
				l.costChangeMayAffect(rw, ch.B, ch.A, ch.OldBA) {
				l.dropLocked(topology.NodeID(s))
				break
			}
		}
	}
}

// linkMayAffect is Routing.linkMayAffect against a cached row's
// pre-change distances.
func (l *Lazy) linkMayAffect(rw *lazyRow, u, v topology.NodeID) bool {
	du := rw.dist[u]
	if du == Infinity {
		return false
	}
	c := l.g.Cost(u, v)
	if c == 0 {
		return false
	}
	return AddDist(du, c) <= rw.dist[v]
}

// costChangeMayAffect is Routing.costChangeMayAffect against a cached
// row's pre-change distances.
func (l *Lazy) costChangeMayAffect(rw *lazyRow, u, v topology.NodeID, old int) bool {
	du := rw.dist[u]
	if du == Infinity {
		return false
	}
	c := l.g.Cost(u, v)
	if c == 0 || (old > 0 && old < c) {
		c = old
	}
	if c == 0 {
		return false
	}
	return AddDist(du, c) <= rw.dist[v]
}

// Graph returns the graph routes are computed over.
func (l *Lazy) Graph() *topology.Graph { return l.g }

// MaxSources returns the LRU capacity in rows.
func (l *Lazy) MaxSources() int { return l.maxSources }

// Cached reports whether s's row is currently resident (test hook).
func (l *Lazy) Cached(s topology.NodeID) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.rows[s] != nil
}

// Stats returns a snapshot of the cache counters.
func (l *Lazy) Stats() LazyStats {
	l.mu.RLock()
	cached := l.cached
	l.mu.RUnlock()
	return LazyStats{
		Hits:          l.hits.Load(),
		Misses:        l.misses.Load(),
		Evictions:     l.evictions.Load(),
		Invalidations: l.invalidations.Load(),
		Cached:        cached,
	}
}

// MemoryBytes estimates the row storage resident on this router —
// cached rows plus the recycle list — for the A13 table-memory column.
func (l *Lazy) MemoryBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int64(l.cached+len(l.free)) * int64(l.g.NumNodes()) * lazyRowBytes
}

// EagerMemoryBytes estimates what eager Compute's flat tables would
// occupy for an n-node graph, for the same A13 column.
func EagerMemoryBytes(n int) int64 {
	return int64(n) * int64(n) * lazyRowBytes
}
