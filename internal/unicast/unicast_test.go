package unicast

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/testseed"
	"hbh/internal/topology"
)

// diamond builds:
//
//	    B
//	  /   \
//	A       D
//	  \   /
//	    C
//
// with configurable directed costs.
func diamond(ab, ba, bd, db, ac, ca, cd, dc int) *topology.Graph {
	g := topology.New()
	a := g.AddNode(topology.Router, addr.RouterAddr(0), "A")
	b := g.AddNode(topology.Router, addr.RouterAddr(1), "B")
	c := g.AddNode(topology.Router, addr.RouterAddr(2), "C")
	d := g.AddNode(topology.Router, addr.RouterAddr(3), "D")
	g.AddLink(a, b, ab, ba)
	g.AddLink(b, d, bd, db)
	g.AddLink(a, c, ac, ca)
	g.AddLink(c, d, cd, dc)
	return g
}

func TestShortestPathBasics(t *testing.T) {
	// A->D: via B costs 2+2=4, via C costs 1+1=2.
	// D->A: via B costs 1+1=2, via C costs 9+9=18.
	g := diamond(2, 1, 2, 1, 1, 9, 1, 9)
	r := Compute(g)

	if d := r.Dist(0, 3); d != 2 {
		t.Errorf("dist A->D = %d, want 2", d)
	}
	if d := r.Dist(3, 0); d != 2 {
		t.Errorf("dist D->A = %d, want 2", d)
	}
	wantFwd := []topology.NodeID{0, 2, 3} // A C D
	gotFwd := r.Path(0, 3)
	for i := range wantFwd {
		if gotFwd[i] != wantFwd[i] {
			t.Fatalf("path A->D = %v, want %v", gotFwd, wantFwd)
		}
	}
	wantRev := []topology.NodeID{3, 1, 0} // D B A
	gotRev := r.Path(3, 0)
	for i := range wantRev {
		if gotRev[i] != wantRev[i] {
			t.Fatalf("path D->A = %v, want %v", gotRev, wantRev)
		}
	}
	if !Asymmetric(r, 0, 3) {
		t.Error("A<->D not reported asymmetric")
	}
}

func TestSymmetricCostsSymmetricPaths(t *testing.T) {
	g := diamond(2, 2, 2, 2, 1, 1, 1, 1)
	r := Compute(g)
	if Asymmetric(r, 0, 3) {
		t.Error("symmetric diamond reported asymmetric")
	}
	if f := exactAsymmetry(r); f != 0 {
		t.Errorf("asymmetry fraction = %v, want 0", f)
	}
}

func TestSelfAndNeighbors(t *testing.T) {
	g := topology.Line(3, false)
	r := Compute(g)
	if d := r.Dist(1, 1); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if n := r.NextHop(1, 1); n != topology.None {
		t.Errorf("self next hop = %d", n)
	}
	p := r.Path(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Errorf("self path = %v", p)
	}
	if n := r.NextHop(0, 2); n != 1 {
		t.Errorf("next hop 0->2 = %d, want 1", n)
	}
	if links := r.PathLinks(0, 2); len(links) != 2 ||
		links[0] != [2]topology.NodeID{0, 1} || links[1] != [2]topology.NodeID{1, 2} {
		t.Errorf("PathLinks = %v", links)
	}
	if r.PathLinks(1, 1) != nil {
		t.Error("self PathLinks non-nil")
	}
}

// TestQuickRoutingInvariants checks Dijkstra invariants on random
// graphs with random costs:
//
//  1. d(v,v) == 0
//  2. the path from a to b exists for all pairs (connected graph),
//     starts at a, ends at b, follows existing links, and its total
//     cost equals Dist(a,b)
//  3. triangle inequality via next hops: Dist(a,b) == cost(a,next) +
//     Dist(next,b)
func TestQuickRoutingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 5 + rng.Intn(18), AvgDegree: 3, Hosts: true,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		r := Compute(g)
		n := g.NumNodes()
		for a := 0; a < n; a++ {
			if r.Dist(topology.NodeID(a), topology.NodeID(a)) != 0 {
				return false
			}
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				A, B := topology.NodeID(a), topology.NodeID(b)
				if !r.Reachable(A, B) {
					return false // connected graph: everything reachable
				}
				p := r.Path(A, B)
				if len(p) < 2 || p[0] != A || p[len(p)-1] != B {
					return false
				}
				total := 0
				for i := 0; i+1 < len(p); i++ {
					c := g.Cost(p[i], p[i+1])
					if c == 0 {
						return false // path uses a non-link
					}
					total += c
				}
				if total != r.Dist(A, B) {
					return false
				}
				next := r.NextHop(A, B)
				if g.Cost(A, next)+r.Dist(next, B) != r.Dist(A, B) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

// TestQuickShortestIsMinimal cross-checks Dijkstra against brute-force
// Bellman-Ford relaxation on small graphs.
func TestQuickShortestIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 4 + rng.Intn(7), AvgDegree: 2.5, Hosts: false,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		r := Compute(g)
		n := g.NumNodes()
		for s := 0; s < n; s++ {
			// Bellman-Ford from s.
			dist := make([]int, n)
			for i := range dist {
				dist[i] = 1 << 30
			}
			dist[s] = 0
			for iter := 0; iter < n; iter++ {
				for v := 0; v < n; v++ {
					for _, nb := range g.Neighbors(topology.NodeID(v)) {
						if dist[v]+nb.Cost < dist[nb.To] {
							dist[nb.To] = dist[v] + nb.Cost
						}
					}
				}
			}
			for v := 0; v < n; v++ {
				want := dist[v]
				got := r.Dist(topology.NodeID(s), topology.NodeID(v))
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicTables(t *testing.T) {
	// Equal-cost ties must resolve identically across recomputation.
	g := topology.ISP()
	// Unit costs everywhere: maximal ties.
	a := Compute(g)
	b := Compute(g)
	n := g.NumNodes()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if a.NextHop(topology.NodeID(x), topology.NodeID(y)) !=
				b.NextHop(topology.NodeID(x), topology.NodeID(y)) {
				t.Fatalf("non-deterministic next hop %d->%d", x, y)
			}
		}
	}
}

func TestAsymmetryFractionRealistic(t *testing.T) {
	// With per-direction uniform costs the ISP topology should show a
	// substantial fraction of asymmetric routes (Paxson: ~30-50% in
	// the Internet; the paper's motivation).
	g := topology.ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(123)), 1, 10)
	r := Compute(g)
	f := exactAsymmetry(r)
	if f < 0.2 || f > 0.9 {
		t.Errorf("asymmetry fraction = %.2f, expected a substantial share", f)
	}
}

func TestHostsNeverTransit(t *testing.T) {
	// No shortest path between two routers may pass through a host.
	g := topology.ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(7)), 1, 10)
	r := Compute(g)
	for _, a := range g.Routers() {
		for _, b := range g.Routers() {
			if a == b {
				continue
			}
			p := r.Path(a, b)
			for _, v := range p[1 : len(p)-1] {
				if g.Node(v).Kind == topology.Host {
					t.Fatalf("path %d->%d transits host %d", a, b, v)
				}
			}
		}
	}
}

// oracleRow is a textbook O(n²) Dijkstra from s, written independently
// of dijkstraInto: it scans for the unfinished node of least (distance,
// node ID), finishes it and relaxes its up links, and a node's first
// hop comes from the first relaxation that reaches its final distance.
// It queues nothing and derives nothing, so it checks the leaf rules
// rather than sharing them.
func oracleRow(g *topology.Graph, s topology.NodeID) ([]topology.NodeID, []int) {
	n := g.NumNodes()
	first := make([]topology.NodeID, n)
	dist := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		first[i], dist[i] = topology.None, Infinity
	}
	dist[s] = 0
	for {
		u := topology.None
		for v := range dist {
			if !done[v] && dist[v] != Infinity && (u == topology.None || dist[v] < dist[u]) {
				u = topology.NodeID(v)
			}
		}
		if u == topology.None {
			return first, dist
		}
		done[u] = true
		for _, nb := range g.Neighbors(u) {
			if !g.LinkEnabled(u, nb.To) || dist[u]+nb.Cost >= dist[nb.To] {
				continue
			}
			dist[nb.To] = dist[u] + nb.Cost
			if u == s {
				first[nb.To] = nb.To
			} else {
				first[nb.To] = first[u]
			}
		}
	}
}

// checkAgainstOracle compares every row of r with oracleRow.
func checkAgainstOracle(t *testing.T, r Router, ctx string) {
	t.Helper()
	g := r.Graph()
	for s := range g.NumNodes() {
		src := topology.NodeID(s)
		first, dist := oracleRow(g, src)
		for x := range first {
			to := topology.NodeID(x)
			if got := r.Dist(src, to); got != dist[x] {
				t.Fatalf("%s: dist[%d][%d] = %d, oracle %d", ctx, s, x, got, dist[x])
			}
			if got := r.NextHop(src, to); got != first[x] {
				t.Fatalf("%s: next[%d][%d] = %d, oracle %d", ctx, s, x, got, first[x])
			}
		}
	}
}

// TestQuickTablesMatchOracle checks Compute, a bounded NewLazy and both
// incremental reconvergence paths against oracleRow, on graphs chosen
// to exercise the leaf rules: the paper topologies (half their nodes hosts) with
// fresh asymmetric cost draws, BA trees (leaf routers, some with
// hosts), a two-router line (a leaf whose neighbour is a leaf), costs
// above dialMaxCost (the heap path) and down links, a host's own link
// among them.
func TestQuickTablesMatchOracle(t *testing.T) {
	rng := testseed.Rand(t)
	graphs := []struct {
		name string
		make func() *topology.Graph
	}{
		{"isp", topology.ISP},
		{"random50", func() *topology.Graph { return topology.Random(topology.Paper50(), rng) }},
		{"ba-tree", func() *topology.Graph {
			return topology.BarabasiAlbert(topology.BAConfig{Routers: 2 + rng.Intn(30), M: 1, Hosts: rng.Intn(2) == 0}, rng)
		}},
		{"line2", func() *topology.Graph { return topology.Line(2, false) }},
	}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for _, gc := range graphs {
		for trial := range trials {
			g := gc.make()
			hi := 10
			if trial%2 == 1 {
				hi = 3 * dialMaxCost
			}
			g.RandomizeCosts(rng, 1, hi)
			edges := g.Edges()
			// Start with some links down: a host's own link when the
			// graph has hosts, and one link at random.
			for _, e := range edges {
				if g.Node(e.A).Kind == topology.Host || g.Node(e.B).Kind == topology.Host {
					g.SetLinkEnabled(e.A, e.B, false)
					break
				}
			}
			e := edges[rng.Intn(len(edges))]
			g.SetLinkEnabled(e.A, e.B, false)

			ctx := fmt.Sprintf("%s trial %d", gc.name, trial)
			eager := Compute(g)
			lazy := NewLazy(g, LazyOptions{MaxSources: 4})
			checkAgainstOracle(t, eager, ctx+" compute")
			checkAgainstOracle(t, lazy, ctx+" lazy")

			for step := range 8 {
				e := edges[rng.Intn(len(edges))]
				if step%2 == 0 {
					g.SetLinkEnabled(e.A, e.B, !g.LinkEnabled(e.A, e.B))
					eager.RecomputeLinks([2]topology.NodeID{e.A, e.B})
					lazy.RecomputeLinks([2]topology.NodeID{e.A, e.B})
				} else {
					old := CostChange{A: e.A, B: e.B, OldAB: g.Cost(e.A, e.B), OldBA: g.Cost(e.B, e.A)}
					g.SetLinkCost(e.A, e.B, 1+rng.Intn(hi), 1+rng.Intn(hi))
					eager.RecomputeCostChanges(old)
					lazy.RecomputeCostChanges(old)
				}
				sctx := fmt.Sprintf("%s step %d", ctx, step)
				checkAgainstOracle(t, eager, sctx+" incremental")
				checkAgainstOracle(t, lazy, sctx+" lazy")
			}
			eager.Recompute()
			checkAgainstOracle(t, eager, ctx+" recompute after churn")
		}
	}
}

// TestRecomputeZeroAlloc: the fault-repair path drops rows and refills
// them into their own storage with the search scratch, leaf rows
// derived in place, so a full reconvergence allocates nothing.
func TestRecomputeZeroAlloc(t *testing.T) {
	g := topology.Random(topology.Paper50(), rand.New(rand.NewSource(1)))
	g.RandomizeCosts(rand.New(rand.NewSource(2)), 1, 10)
	r := Compute(g)
	n := g.NumNodes()
	reconverge := func() {
		r.Recompute()
		for s := range n {
			r.NextHop(topology.NodeID(s), 0)
		}
	}
	if allocs := testing.AllocsPerRun(20, reconverge); allocs != 0 {
		t.Errorf("Recompute and refill: %.1f allocs per run, want 0", allocs)
	}
	if st := r.Stats(); st.Cached != n {
		t.Fatalf("%d of %d rows filled after the refill", st.Cached, n)
	}
}
