package unicast

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hbh/internal/topology"
)

// Router is the unicast routing substrate every layer above routes
// through: next hops and distances for the simulator's per-hop
// forwarding, full paths for tree reconstruction, and the three
// reconvergence hooks the faults layer drives after substrate changes.
//
// *Routing, the delay-shortest router, is what every protocol runs on;
// *WidestRouting, the maximum-bottleneck tables of the QoS extension,
// is the other implementation.
type Router interface {
	// Graph returns the graph the tables are computed over.
	Graph() *topology.Graph
	// NextHop returns the first hop on the shortest path from -> to
	// (topology.None when from == to or to is unreachable).
	NextHop(from, to topology.NodeID) topology.NodeID
	// Dist returns the cost of the shortest directed path from -> to
	// (0 when from == to, Infinity when unreachable).
	Dist(from, to topology.NodeID) int
	// Reachable reports whether to can be reached from from.
	Reachable(from, to topology.NodeID) bool
	// Path returns the node sequence of the shortest directed path,
	// inclusive; nil when unreachable, [from] when from == to.
	Path(from, to topology.NodeID) []topology.NodeID
	// PathLinks returns the path's directed links as (a, b) hops; nil
	// when unreachable or from == to.
	PathLinks(from, to topology.NodeID) [][2]topology.NodeID

	// Recompute reconverges every table after arbitrary graph changes.
	Recompute()
	// RecomputeLinks reconverges after the given undirected links
	// changed up/down state (the graph must already reflect it).
	RecomputeLinks(changed ...[2]topology.NodeID)
	// RecomputeCostChanges reconverges after the given links' costs
	// were rewritten (the graph must already reflect it).
	RecomputeCostChanges(changes ...CostChange)
}

// DefaultLazyBudgetBytes is the approximate memory budget the default
// row capacity is derived from: capacity = budget / (16 bytes × n),
// clamped to [64, 4096] rows. Up to 4096 nodes that holds every row;
// at n = 100k a row is 1.6 MB, giving ~671 rows — comfortably more
// than any single experiment routes concurrently, and ~1 GiB resident
// worst case.
const DefaultLazyBudgetBytes = 1 << 30

// rowBytes is the per-node size of one row: an 8-byte next hop plus an
// 8-byte distance.
const rowBytes = 16

// LazyOptions configures NewLazy.
type LazyOptions struct {
	// MaxSources caps the number of resident per-source rows. 0 derives
	// the cap from DefaultLazyBudgetBytes and the graph size.
	MaxSources int
}

// LazyStats counts row traffic on a Routing, for benchmarks and the
// A13 and A14 reports. Hits are counted only by a bounded router: a
// resident hit is a flag load and an index, and stays that. Under
// concurrent readers hit/miss attribution of racing queries for the same
// unfilled source is scheduling-dependent; the routing answers
// themselves never are.
type LazyStats struct {
	Hits          uint64 // queries answered from a bounded router's resident row
	Misses        uint64 // rows filled (a search, or a leaf's derivation)
	Evictions     uint64 // rows dropped for capacity
	Invalidations uint64 // rows dropped by recompute hooks
	Cached        int    // rows currently filled
}

// Routing is the shortest-path router: for every ordered pair
// (from, to), the next hop on and the cost of the shortest directed
// path from -> to, kept as one row per source. A row is filled by
// dijkstraInto on first query (or derived from a neighbour's row, see
// fillLocked), and dijkstraInto breaks ties deterministically, so a row
// is bit-identical however it came to exist: filled at construction,
// kept across an invalidation it survived, or refilled after an
// eviction.
//
// The storage regime is fixed at construction by whether the row
// capacity covers every node:
//
//   - Resident (capacity >= n): Compute, and New up to 4096 nodes. A
//     filled row stays filled until a hook drops it, and its storage is
//     never recycled. A hit is a ready-flag load and an index: no lock,
//     no LRU stamp, no hit counter. A miss fills the row under mu, then
//     publishes the ready flag.
//   - Bounded (capacity < n): an LRU of rows, for graphs whose n² table
//     does not fit (~20 GB of distances alone at 50k routers). Queries
//     read-lock mu, stamp the row's LRU clock and count the hit; a miss
//     evicts the least recently used row and recycles its storage.
//
// Queries are safe from any number of goroutines in both regimes. The
// recompute hooks take mu, and in the bounded regime may overlap
// queries; in the resident regime no query may be in flight while a
// hook runs. In
// both regimes the graph itself may change only while no query or hook
// is in flight (a simulator event, or a barrier or quiesce in the live
// and sharded runtimes).
type Routing struct {
	g        *topology.Graph
	capacity int
	resident bool

	// mu serialises fills and hooks. In the bounded regime it also
	// guards the rows' storage, which eviction and invalidation
	// recycle, so queries read-lock it.
	mu sync.RWMutex
	// rows holds every source's row, indexed by NodeID; the headers are
	// inline, so a hit reads the flag and the slice header from one
	// cache line.
	rows   []row
	cached int // filled rows
	stored int // rows' worth of storage allocated (filled or free)
	// misses, evictions and invalidations only change under the write
	// lock.
	misses, evictions, invalidations uint64
	// free recycles a bounded router's dropped storage, so steady-state
	// churn allocates nothing.
	free    []rowData
	scratch *sptScratch

	// clock stamps LRU touches and hits counts them: atomic, so the
	// read-locked bounded hit path can bump them without escalating to
	// the write lock.
	clock, hits atomic.Uint64
}

// rowData is one source's row: next[to] is the first hop on the
// shortest path (topology.None when unreachable or to is the source),
// dist[to] its cost (Infinity when unreachable).
type rowData struct {
	next []topology.NodeID
	dist []int
}

// row is a rowData plus its ready flag and its LRU stamp (bounded
// regime).
type row struct {
	rowData
	ready atomic.Bool
	used  atomic.Uint64
}

// newRouting returns a router over g with no row filled.
func newRouting(g *topology.Graph, capacity int) *Routing {
	n := g.NumNodes()
	return &Routing{
		g:        g,
		capacity: capacity,
		resident: capacity >= n,
		rows:     make([]row, n),
		scratch:  newSPTScratch(n),
	}
}

// Compute builds a resident router over g with every row filled, the
// rows views into two flat contiguous arrays. Dijkstra runs from every
// node but the derived leaves, whose rows are then filled from their
// neighbours' (see derivedLeaf); on the paper topologies half the
// nodes are hosts, so this halves the searches. Ties are broken
// deterministically (lowest finalisation order by (distance, node
// ID)), so two runs over identical costs produce identical tables —
// required for reproducible experiments.
func Compute(g *topology.Graph) *Routing {
	n := g.NumNodes()
	r := newRouting(g, n)
	nextFlat := make([]topology.NodeID, n*n)
	distFlat := make([]int, n*n)
	for s := range r.rows {
		r.rows[s].rowData = rowData{next: nextFlat[s*n : (s+1)*n : (s+1)*n], dist: distFlat[s*n : (s+1)*n : (s+1)*n]}
	}
	r.stored = n
	for _, leaves := range [2]bool{false, true} {
		for s := range r.rows {
			if derivedLeaf(g, topology.NodeID(s)) == leaves {
				r.fillLocked(topology.NodeID(s))
			}
		}
	}
	return r
}

// NewLazy builds a router over g whose rows fill on first query; it is
// resident when opts.MaxSources (or the default capacity) covers every
// node, bounded otherwise.
func NewLazy(g *topology.Graph, opts LazyOptions) *Routing {
	c := opts.MaxSources
	if c <= 0 {
		c = defaultCapacity(g.NumNodes())
	}
	return newRouting(g, c)
}

// defaultCapacity is the row capacity DefaultLazyBudgetBytes buys for
// an n-node graph.
func defaultCapacity(n int) int {
	return min(max(DefaultLazyBudgetBytes/(rowBytes*max(n, 1)), 64), 4096)
}

// New builds the routing substrate for g: Compute when the default
// capacity holds all n rows (up to 4096 nodes), NewLazy otherwise.
func New(g *topology.Graph) *Routing {
	if n := g.NumNodes(); defaultCapacity(n) >= n {
		return Compute(g)
	}
	return NewLazy(g, LazyOptions{})
}

// fillLocked fills s's unfilled row, evicting the least recently used
// row first if a bounded router is at capacity. Caller holds the write
// lock (or is Compute, the only owner).
//
// A derived leaf whose neighbour's row is filled gets that row one link
// further, the row the search from the leaf would find: every path out
// of a leaf starts on its one link, and no shortest path from the
// neighbour passes back through the leaf. So the first hop is the
// neighbour for every reachable destination, the distance is the
// neighbour's plus the cost of leaf -> neighbour, and nothing is
// reachable at all when that link is down.
func (r *Routing) fillLocked(s topology.NodeID) {
	r.misses++
	rw := &r.rows[s]
	if rw.next == nil {
		if r.cached >= r.capacity {
			r.evictOldest()
		}
		rw.rowData = r.takeRow()
	}
	next, dist := rw.next, rw.dist
	if nb := r.g.Neighbors(s); derivedLeaf(r.g, s) && r.rows[nb[0].To].ready.Load() {
		up := r.g.LinkUp(s, nb[0].To)
		for x, d := range r.rows[nb[0].To].dist {
			if !up || d == Infinity {
				next[x], dist[x] = topology.None, Infinity
				continue
			}
			next[x], dist[x] = nb[0].To, AddDist(d, nb[0].Cost)
		}
		next[s], dist[s] = topology.None, 0
	} else {
		dijkstraInto(r.g, s, next, dist, r.scratch)
	}
	if !r.resident {
		rw.used.Store(r.clock.Add(1))
	}
	r.cached++
	rw.ready.Store(true)
}

// derivedLeaf reports whether v's row can be derived from its
// neighbour's rather than searched: v is a leaf and its neighbour is
// not (two leaves joined to each other would each wait on the other's
// row).
func derivedLeaf(g *topology.Graph, v topology.NodeID) bool {
	nbs := g.Neighbors(v)
	return len(nbs) == 1 && !isLeaf(g, nbs[0].To)
}

// takeRow returns row storage from the free list, or allocates it.
// Caller holds the write lock.
func (r *Routing) takeRow() rowData {
	if n := len(r.free); n > 0 {
		rd := r.free[n-1]
		r.free = r.free[:n-1]
		return rd
	}
	r.stored++
	n := r.g.NumNodes()
	return rowData{next: make([]topology.NodeID, n), dist: make([]int, n)}
}

// evictOldest drops the least recently used row. A linear scan of the
// node index is fine: an eviction is always paired with a fill over the
// same nodes, which dwarfs the scan. Caller holds the write lock.
func (r *Routing) evictOldest() {
	victim := topology.None
	var oldest uint64
	for s := range r.rows {
		rw := &r.rows[s]
		if !rw.ready.Load() {
			continue
		}
		if u := rw.used.Load(); victim == topology.None || u < oldest {
			victim, oldest = topology.NodeID(s), u
		}
	}
	if victim != topology.None {
		r.dropLocked(victim)
		r.evictions++
	}
}

// dropLocked unfills s's row; a bounded router recycles its storage.
// Caller holds the write lock.
func (r *Routing) dropLocked(s topology.NodeID) {
	rw := &r.rows[s]
	rw.ready.Store(false)
	r.cached--
	if !r.resident {
		r.free = append(r.free, rw.rowData)
		rw.rowData = rowData{}
	}
}

// fill answers a query that found from's row unfilled, under the write
// lock: it re-checks (another goroutine may have filled the row between
// the two looks), fills, and reads both of to's elements inside the
// lock, so a bounded row cannot be recycled under the read.
func (r *Routing) fill(from, to topology.NodeID) (topology.NodeID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := &r.rows[from]
	if !rw.ready.Load() {
		r.fillLocked(from)
	} else if !r.resident {
		rw.used.Store(r.clock.Add(1))
		r.hits.Add(1)
	}
	return rw.next[to], rw.dist[to]
}

// NextHop returns the first hop on the shortest path from -> to
// (topology.None when from == to or to is unreachable).
func (r *Routing) NextHop(from, to topology.NodeID) topology.NodeID {
	if r.resident {
		if rw := &r.rows[from]; rw.ready.Load() {
			return rw.next[to]
		}
	} else {
		r.mu.RLock()
		if rw := &r.rows[from]; rw.ready.Load() {
			next := rw.next[to]
			rw.used.Store(r.clock.Add(1))
			r.mu.RUnlock()
			r.hits.Add(1)
			return next
		}
		r.mu.RUnlock()
	}
	next, _ := r.fill(from, to)
	return next
}

// Dist returns the cost of the shortest directed path from -> to (0
// when from == to, Infinity when unreachable), by the same paths as
// NextHop.
func (r *Routing) Dist(from, to topology.NodeID) int {
	if r.resident {
		if rw := &r.rows[from]; rw.ready.Load() {
			return rw.dist[to]
		}
	} else {
		r.mu.RLock()
		if rw := &r.rows[from]; rw.ready.Load() {
			dist := rw.dist[to]
			rw.used.Store(r.clock.Add(1))
			r.mu.RUnlock()
			r.hits.Add(1)
			return dist
		}
		r.mu.RUnlock()
	}
	_, dist := r.fill(from, to)
	return dist
}

// Reachable reports whether to can be reached from from.
func (r *Routing) Reachable(from, to topology.NodeID) bool {
	return r.Dist(from, to) != Infinity
}

// Path returns the node sequence of the shortest directed path
// from -> to. Each intermediate node's row is filled along the way —
// the same rows per-hop forwarding of a packet on that path would
// touch.
func (r *Routing) Path(from, to topology.NodeID) []topology.NodeID {
	return walkPath(r, from, to)
}

// PathLinks returns the path's directed links as (a, b) hops.
func (r *Routing) PathLinks(from, to topology.NodeID) [][2]topology.NodeID {
	return walkPathLinks(r, from, to)
}

// Graph returns the graph routes are computed over.
func (r *Routing) Graph() *topology.Graph { return r.g }

// MaxSources returns the row capacity.
func (r *Routing) MaxSources() int { return r.capacity }

// Cached reports whether s's row is currently filled (test hook).
func (r *Routing) Cached(s topology.NodeID) bool { return r.rows[s].ready.Load() }

// Stats returns a snapshot of the row counters.
func (r *Routing) Stats() LazyStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return LazyStats{
		Hits:          r.hits.Load(),
		Misses:        r.misses,
		Evictions:     r.evictions,
		Invalidations: r.invalidations,
		Cached:        r.cached,
	}
}

// MemoryBytes is the row storage this router holds — filled rows plus
// a resident router's unfilled ones and a bounded router's free list —
// for the A13 table-memory column.
func (r *Routing) MemoryBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return int64(r.stored) * int64(r.g.NumNodes()) * rowBytes
}

// EagerMemoryBytes is the storage of every row of an n-node graph, for
// the same A13 column.
func EagerMemoryBytes(n int) int64 {
	return int64(n) * int64(n) * rowBytes
}

// walkPath reconstructs the node sequence from -> to by following next
// hops — the shared implementation behind both Router implementations'
// Path methods.
func walkPath(r Router, from, to topology.NodeID) []topology.NodeID {
	if from == to {
		return []topology.NodeID{from}
	}
	if !r.Reachable(from, to) {
		return nil
	}
	path := []topology.NodeID{from}
	cur := from
	for cur != to {
		nxt := r.NextHop(cur, to)
		if nxt == topology.None {
			panic(fmt.Sprintf("unicast: broken table %d->%d at %d", from, to, cur))
		}
		path = append(path, nxt)
		cur = nxt
	}
	return path
}

// walkPathLinks renders walkPath as directed (a, b) hops.
func walkPathLinks(r Router, from, to topology.NodeID) [][2]topology.NodeID {
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
// reverse of the shortest path b -> a, node-by-node, over any Router
// implementation (the paper's notion of a routing asymmetry between
// two sites).
func Asymmetric(r Router, a, b topology.NodeID) bool {
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
