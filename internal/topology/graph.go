// Package topology provides the network-graph substrate: directed
// graphs with an independent integer cost per link direction (the
// paper's asymmetric-routing model), the 18-router ISP topology of
// Figure 6, and the 50-node random topology generator used in the
// evaluation.
//
// Every link n1–n2 carries two costs, c(n1,n2) and c(n2,n1), each an
// integer chosen uniformly in [1,10]. A cost is simultaneously the
// routing metric and the propagation delay in "time units", exactly as
// in the paper's NS setup.
package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"hbh/internal/addr"
)

// NodeID identifies a node within one Graph. IDs are dense: 0..N-1.
type NodeID int

// None is the invalid node ID, used as a sentinel (e.g. "no next hop").
const None NodeID = -1

// Kind distinguishes routers from end hosts (potential receivers and
// sources). Hosts never forward transit traffic and always hang off
// exactly one router.
type Kind uint8

const (
	// Router is an interior node that forwards packets.
	Router Kind = iota
	// Host is a leaf end-system (a potential receiver or a source).
	Host
)

func (k Kind) String() string {
	switch k {
	case Router:
		return "router"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is a vertex in the graph.
type Node struct {
	ID   NodeID
	Kind Kind
	Addr addr.Addr // unique unicast address
	Name string    // human-readable label, e.g. "R3" or "r21"
}

// Edge is one undirected link with its two directed costs.
type Edge struct {
	A, B NodeID
	// CostAB is the cost (= delay) of the direction A -> B, CostBA of
	// B -> A. Both are >= 1.
	CostAB, CostBA int
}

// Graph is a connected network of routers and hosts. Construct with
// New, then AddNode/AddLink. Graphs are immutable once handed to the
// routing and simulation layers by convention; a graph shared across
// runs or workers can additionally be sealed with Freeze, after which
// every mutator panics. Clone always returns a mutable copy.
type Graph struct {
	nodes []Node
	// adj[v] lists the directed out-neighbors of v with the cost of the
	// out direction.
	adj    [][]Neighbor
	edges  []Edge
	byAddr map[addr.Addr]NodeID
	// bw holds optional per-directed-link bandwidths (see bandwidth.go).
	bw map[bwKey]int
	// down marks administratively disabled links (both directions at
	// once — a failed link carries nothing either way). The structural
	// graph is untouched: costs, adjacency and edges stay in place so a
	// later re-enable restores the exact pre-failure substrate. The
	// routing and simulation layers consult LinkEnabled on every use.
	down map[linkKey]bool
	// maxCost is a monotone upper bound on every directed link cost
	// ever set (it is not lowered when costs decrease). The routing
	// layer consults it to pick a bucket-queue shortest-path scan when
	// costs are small integers.
	maxCost int
	// frozen seals the graph against mutation (see Freeze).
	frozen bool
}

// Freeze seals the graph: every subsequent mutation (AddNode, AddLink,
// SetLinkCost, SetLinkEnabled, the cost randomizers, SetLinkBandwidth)
// panics. The experiment catalog freezes its cached base graphs so a
// caller that forgets to Clone before mutating fails loudly instead of
// silently corrupting every later run sharing the base. Freezing is
// one-way; Clone returns an unfrozen copy.
func (g *Graph) Freeze() { g.frozen = true }

// Frozen reports whether the graph has been sealed with Freeze.
func (g *Graph) Frozen() bool { return g.frozen }

// mutable panics if the graph is frozen; every mutator calls it first.
func (g *Graph) mutable(op string) {
	if g.frozen {
		panic(fmt.Sprintf("topology: %s on frozen graph (Clone before mutating a shared base graph)", op))
	}
}

// linkKey identifies an undirected link by its normalized endpoints.
type linkKey struct{ lo, hi NodeID }

func mkLinkKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{lo: a, hi: b}
}

// Neighbor is a directed adjacency: the far end of a link and the cost
// of traversing the link in this direction.
type Neighbor struct {
	To   NodeID
	Cost int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byAddr: make(map[addr.Addr]NodeID)}
}

// AddNode appends a node and returns its ID. The address must be
// unicast and unused.
func (g *Graph) AddNode(kind Kind, a addr.Addr, name string) NodeID {
	g.mutable("AddNode")
	if !a.IsUnicast() {
		panic(fmt.Sprintf("topology: node address %v is not unicast", a))
	}
	if _, dup := g.byAddr[a]; dup {
		panic(fmt.Sprintf("topology: duplicate node address %v", a))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Addr: a, Name: name})
	g.adj = append(g.adj, nil)
	g.byAddr[a] = id
	return id
}

// AddLink connects a and b with directed costs costAB (a->b) and costBA
// (b->a). Self-loops, duplicate links and non-positive costs panic —
// these are always construction bugs.
func (g *Graph) AddLink(a, b NodeID, costAB, costBA int) {
	g.mutable("AddLink")
	if a == b {
		panic("topology: self-loop")
	}
	if !g.valid(a) || !g.valid(b) {
		panic(fmt.Sprintf("topology: link %d-%d references unknown node", a, b))
	}
	if costAB < 1 || costBA < 1 {
		panic(fmt.Sprintf("topology: non-positive link cost %d/%d", costAB, costBA))
	}
	if g.HasLink(a, b) {
		panic(fmt.Sprintf("topology: duplicate link %d-%d", a, b))
	}
	g.adj[a] = append(g.adj[a], Neighbor{To: b, Cost: costAB})
	g.adj[b] = append(g.adj[b], Neighbor{To: a, Cost: costBA})
	g.edges = append(g.edges, Edge{A: a, B: b, CostAB: costAB, CostBA: costBA})
	g.noteCost(costAB)
	g.noteCost(costBA)
}

// noteCost folds c into the monotone cost upper bound.
func (g *Graph) noteCost(c int) {
	if c > g.maxCost {
		g.maxCost = c
	}
}

// MaxLinkCost returns an upper bound on every directed link cost: the
// largest cost ever set on this graph. It is not tightened when costs
// are later lowered, so it may overestimate — callers use it only to
// size cost-indexed structures.
func (g *Graph) MaxLinkCost() int { return g.maxCost }

func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.nodes) }

// SetLinkCost rewrites both directed costs of the existing (undirected)
// link between a and b. This is the dynamic-cost mutation used by the
// link-cost churn adversary: unlike RandomizeCosts it targets a single
// link on a live graph, so callers are expected to follow up with an
// incremental routing reconvergence (Routing.RecomputeCostChanges).
// Costs must stay >= 1 and the link must exist — churn plans touching
// nonexistent links are construction bugs, exactly as in AddLink.
func (g *Graph) SetLinkCost(a, b NodeID, costAB, costBA int) {
	g.mutable("SetLinkCost")
	if !g.HasLink(a, b) {
		panic(fmt.Sprintf("topology: SetLinkCost on missing link %d-%d", a, b))
	}
	if costAB < 1 || costBA < 1 {
		panic(fmt.Sprintf("topology: non-positive link cost %d/%d", costAB, costBA))
	}
	for i := range g.edges {
		e := &g.edges[i]
		switch {
		case e.A == a && e.B == b:
			e.CostAB, e.CostBA = costAB, costBA
		case e.A == b && e.B == a:
			e.CostAB, e.CostBA = costBA, costAB
		default:
			continue
		}
		break
	}
	g.setCost(a, b, costAB)
	g.setCost(b, a, costBA)
}

// HasLink reports whether an (undirected) link between a and b exists.
func (g *Graph) HasLink(a, b NodeID) bool {
	if !g.valid(a) || !g.valid(b) {
		return false
	}
	for _, n := range g.adj[a] {
		if n.To == b {
			return true
		}
	}
	return false
}

// SetLinkEnabled enables or disables the (undirected) link between a
// and b. Disabling is the fault-injection model of a link failure:
// both directions stop carrying packets (netsim drops them as
// LinkDownDrops) and shortest-path computation skips the link, while
// the link's costs are preserved for re-enabling. Toggling a missing
// link panics — fault plans referencing nonexistent links are
// construction bugs.
func (g *Graph) SetLinkEnabled(a, b NodeID, enabled bool) {
	g.mutable("SetLinkEnabled")
	if !g.HasLink(a, b) {
		panic(fmt.Sprintf("topology: SetLinkEnabled on missing link %d-%d", a, b))
	}
	if enabled {
		delete(g.down, mkLinkKey(a, b))
		return
	}
	if g.down == nil {
		g.down = make(map[linkKey]bool)
	}
	g.down[mkLinkKey(a, b)] = true
}

// LinkEnabled reports whether the link between a and b exists and is
// not disabled. Links are enabled by default.
func (g *Graph) LinkEnabled(a, b NodeID) bool {
	if len(g.down) > 0 && g.down[mkLinkKey(a, b)] {
		return false
	}
	return g.HasLink(a, b)
}

// HasDownLinks reports whether any link is administratively disabled.
// Hot loops hoist this to skip per-edge LinkUp checks on a fault-free
// graph.
func (g *Graph) HasDownLinks() bool { return len(g.down) > 0 }

// LinkUp reports whether a link known to exist is not disabled. Unlike
// LinkEnabled it skips the adjacency existence scan, so it is safe in
// hot loops that already iterate Neighbors — with no faults injected it
// is a single length check. Calling it for a link that does not exist
// returns true; use LinkEnabled when existence is in question.
func (g *Graph) LinkUp(a, b NodeID) bool {
	return len(g.down) == 0 || !g.down[mkLinkKey(a, b)]
}

// Cost returns the directed cost from -> to, or 0 if no link exists.
func (g *Graph) Cost(from, to NodeID) int {
	for _, n := range g.adj[from] {
		if n.To == to {
			return n.Cost
		}
	}
	return 0
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected links.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node record for id.
func (g *Graph) Node(id NodeID) Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("topology: unknown node %d", id))
	}
	return g.nodes[id]
}

// Nodes returns all nodes in ID order. The returned slice is shared;
// callers must not mutate it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edges returns all undirected links. The returned slice is shared.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the directed out-adjacency of v. The returned slice
// is shared.
func (g *Graph) Neighbors(v NodeID) []Neighbor { return g.adj[v] }

// ByAddr resolves a node by unicast address.
func (g *Graph) ByAddr(a addr.Addr) (NodeID, bool) {
	id, ok := g.byAddr[a]
	return id, ok
}

// MustByAddr resolves a node by address and panics if absent.
func (g *Graph) MustByAddr(a addr.Addr) NodeID {
	id, ok := g.byAddr[a]
	if !ok {
		panic(fmt.Sprintf("topology: no node with address %v", a))
	}
	return id
}

// Routers returns the IDs of all router nodes in ID order.
func (g *Graph) Routers() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Router {
			out = append(out, n.ID)
		}
	}
	return out
}

// Hosts returns the IDs of all host nodes in ID order.
func (g *Graph) Hosts() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// AttachedRouter returns the router a host hangs off. Panics if v is
// not a host or is mis-wired (hosts have exactly one link, to a
// router).
func (g *Graph) AttachedRouter(v NodeID) NodeID {
	if g.Node(v).Kind != Host {
		panic(fmt.Sprintf("topology: node %d is not a host", v))
	}
	if len(g.adj[v]) != 1 {
		panic(fmt.Sprintf("topology: host %d has %d links, want 1", v, len(g.adj[v])))
	}
	r := g.adj[v][0].To
	if g.Node(r).Kind != Router {
		panic(fmt.Sprintf("topology: host %d attached to non-router %d", v, r))
	}
	return r
}

// Connected reports whether the graph is connected over its enabled
// links (treating links as undirected; directed costs never disconnect
// a direction since both directions always exist). With no links
// disabled this is plain structural connectivity; with faults injected
// it answers whether the current failure set partitions the network.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range g.adj[v] {
			if !seen[n.To] && g.LinkEnabled(v, n.To) {
				seen[n.To] = true
				count++
				stack = append(stack, n.To)
			}
		}
	}
	return count == len(g.nodes)
}

// AvgRouterDegree returns the average degree of router nodes counting
// only router-router links, the connectivity statistic the paper quotes
// (3.3 for the ISP topology, 8.6 for the 50-node topology).
func (g *Graph) AvgRouterDegree() float64 {
	routers := g.Routers()
	if len(routers) == 0 {
		return 0
	}
	total := 0
	for _, r := range routers {
		for _, n := range g.adj[r] {
			if g.Node(n.To).Kind == Router {
				total++
			}
		}
	}
	return float64(total) / float64(len(routers))
}

// RandomizeCosts reassigns every directed cost uniformly in [lo, hi]
// using rng. The paper redraws costs for each of the 500 runs; the two
// directions of a link are drawn independently, which is what produces
// routing asymmetry.
func (g *Graph) RandomizeCosts(rng *rand.Rand, lo, hi int) {
	g.randomizeCosts(rng, lo, hi, true)
}

// SkipRandomizeCosts consumes exactly the rng draws RandomizeCosts
// would, without touching the graph. The experiment layer's
// scenario-level routing cache uses it: a run handed a prebuilt
// cost-randomized graph must still advance its private rng past the
// cost draws so everything downstream (receiver sampling, join jitter)
// sees the identical stream and results stay bit-identical to the
// uncached path.
func (g *Graph) SkipRandomizeCosts(rng *rand.Rand, lo, hi int) {
	g.randomizeCosts(rng, lo, hi, false)
}

// randomizeCosts is the single implementation behind RandomizeCosts
// and SkipRandomizeCosts, so the two can never drift in how many draws
// they consume.
func (g *Graph) randomizeCosts(rng *rand.Rand, lo, hi int, apply bool) {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("topology: bad cost range [%d,%d]", lo, hi))
	}
	if apply {
		g.mutable("RandomizeCosts")
	}
	draw := func() int { return lo + rng.Intn(hi-lo+1) }
	for i := range g.edges {
		ab, ba := draw(), draw()
		if !apply {
			continue
		}
		e := &g.edges[i]
		e.CostAB = ab
		e.CostBA = ba
		g.setCost(e.A, e.B, e.CostAB)
		g.setCost(e.B, e.A, e.CostBA)
	}
}

// PerturbCosts draws symmetric base costs in [lo,hi] and then skews
// each direction by a uniform offset in [0, spread], clamping at lo.
// spread 0 yields symmetric routing; larger spreads increase asymmetry.
// Used by the asymmetry-sweep extension experiment.
func (g *Graph) PerturbCosts(rng *rand.Rand, lo, hi, spread int) {
	g.perturbCosts(rng, lo, hi, spread, true)
}

// SkipPerturbCosts consumes exactly the rng draws PerturbCosts would,
// without touching the graph (see SkipRandomizeCosts).
func (g *Graph) SkipPerturbCosts(rng *rand.Rand, lo, hi, spread int) {
	g.perturbCosts(rng, lo, hi, spread, false)
}

func (g *Graph) perturbCosts(rng *rand.Rand, lo, hi, spread int, apply bool) {
	if lo < 1 || hi < lo || spread < 0 {
		panic(fmt.Sprintf("topology: bad perturb params [%d,%d] spread %d", lo, hi, spread))
	}
	if apply {
		g.mutable("PerturbCosts")
	}
	for i := range g.edges {
		base := lo + rng.Intn(hi-lo+1)
		skew := func() int {
			c := base
			if spread > 0 {
				c += rng.Intn(spread+1) - spread/2
			}
			if c < lo {
				c = lo
			}
			return c
		}
		ab, ba := skew(), skew()
		if !apply {
			continue
		}
		e := &g.edges[i]
		e.CostAB = ab
		e.CostBA = ba
		g.setCost(e.A, e.B, e.CostAB)
		g.setCost(e.B, e.A, e.CostBA)
	}
}

func (g *Graph) setCost(from, to NodeID, c int) {
	g.noteCost(c)
	for i := range g.adj[from] {
		if g.adj[from][i].To == to {
			g.adj[from][i].Cost = c
			return
		}
	}
	panic(fmt.Sprintf("topology: setCost on missing link %d->%d", from, to))
}

// Clone returns a deep copy of the graph. Experiments clone the shared
// base topology before randomizing costs so runs stay independent.
func (g *Graph) Clone() *Graph {
	// The copy is deliberately unfrozen: cloning is how callers obtain a
	// mutable graph from a frozen base.
	c := &Graph{
		nodes:   append([]Node(nil), g.nodes...),
		adj:     make([][]Neighbor, len(g.adj)),
		edges:   append([]Edge(nil), g.edges...),
		byAddr:  make(map[addr.Addr]NodeID, len(g.byAddr)),
		maxCost: g.maxCost,
	}
	for i, ns := range g.adj {
		c.adj[i] = append([]Neighbor(nil), ns...)
	}
	for a, id := range g.byAddr {
		c.byAddr[a] = id
	}
	if g.bw != nil {
		c.bw = make(map[bwKey]int, len(g.bw))
		for k, v := range g.bw {
			c.bw[k] = v
		}
	}
	if len(g.down) > 0 {
		c.down = make(map[linkKey]bool, len(g.down))
		for k := range g.down {
			c.down[k] = true
		}
	}
	return c
}

// String renders a compact multi-line description, stable across runs.
func (g *Graph) String() string {
	edges := append([]Edge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	s := fmt.Sprintf("graph: %d nodes, %d links, avg router degree %.2f\n",
		g.NumNodes(), g.NumEdges(), g.AvgRouterDegree())
	for _, e := range edges {
		s += fmt.Sprintf("  %s <-> %s  cost %d/%d\n",
			g.nodes[e.A].Name, g.nodes[e.B].Name, e.CostAB, e.CostBA)
	}
	return s
}
