package unicast

import (
	"math/rand"
	"slices"
	"testing"

	"hbh/internal/topology"
)

// assertRowMatches compares one source's full row against oracleRow,
// bit for bit.
func assertRowMatches(t *testing.T, r *Routing, s topology.NodeID, ctx string) {
	t.Helper()
	first, dist := oracleRow(r.Graph(), s)
	for to := range first {
		d := topology.NodeID(to)
		if got := r.Dist(s, d); got != dist[to] {
			t.Fatalf("%s: dist[%d][%d] = %d, oracle %d", ctx, s, d, got, dist[to])
		}
		if got := r.NextHop(s, d); got != first[to] {
			t.Fatalf("%s: next[%d][%d] = %d, oracle %d", ctx, s, d, got, first[to])
		}
	}
}

// oraclePath follows oracleRow's first hops from a to b.
func oraclePath(g *topology.Graph, a, b topology.NodeID) []topology.NodeID {
	if _, dist := oracleRow(g, a); dist[b] == Infinity {
		return nil
	}
	path := []topology.NodeID{a}
	for cur := a; cur != b; {
		first, _ := oracleRow(g, cur)
		cur = first[b]
		path = append(path, cur)
	}
	return path
}

// exactAsymmetry is the exhaustive asymmetry fraction over every
// unordered router pair.
func exactAsymmetry(r Router) float64 {
	routers := r.Graph().Routers()
	pairs, asym := 0, 0
	for i, a := range routers {
		for _, b := range routers[i+1:] {
			pairs++
			if Asymmetric(r, a, b) {
				asym++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(asym) / float64(pairs)
}

func TestLazyMatchesEagerAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := topology.Random(topology.RandomConfig{Routers: 24, AvgDegree: 4, Hosts: true}, rng)
	g.RandomizeCosts(rng, 1, 10)
	// Cap far below the node count so the scan itself forces evictions.
	l := NewLazy(g, LazyOptions{MaxSources: 5})
	for s := 0; s < g.NumNodes(); s++ {
		assertRowMatches(t, l, topology.NodeID(s), "all-pairs")
	}
	if st := l.Stats(); st.Evictions == 0 {
		t.Fatalf("expected evictions with cap 5 over %d sources, got stats %+v", g.NumNodes(), st)
	}
}

func TestLazyPathMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := topology.Random(topology.RandomConfig{Routers: 16, AvgDegree: 4, Hosts: true}, rng)
	g.RandomizeCosts(rng, 1, 10)
	l := NewLazy(g, LazyOptions{MaxSources: 4})
	hosts := g.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if pl, po := l.Path(a, b), oraclePath(g, a, b); !slices.Equal(pl, po) {
				t.Fatalf("path %d->%d: lazy %v, oracle %v", a, b, pl, po)
			}
		}
	}
}

// TestLazyChurnEvictionProperty is the LRU eviction correctness
// property test: under a random interleaving of cost churn, link
// up/down faults and queries, a lazy router with a tiny LRU (evicting
// and recomputing sources constantly) and one with an unbounded LRU
// (never evicting, resident) must both stay bit-identical to the
// textbook oracle over the same graph, as must a Compute router driven
// by the same hooks — i.e. eviction and per-source invalidation never
// change results, only when the Dijkstra runs.
func TestLazyChurnEvictionProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := topology.Random(topology.RandomConfig{Routers: 18, AvgDegree: 4, Hosts: true}, rng)
		g.RandomizeCosts(rng, 1, 10)
		n := g.NumNodes()

		full := Compute(g)
		tiny := NewLazy(g, LazyOptions{MaxSources: 3})
		big := NewLazy(g, LazyOptions{MaxSources: 10 * n})

		edges := g.Edges()
		// down tracks which links are currently disabled so the mutation
		// mix can re-enable them (only router-router links are toggled,
		// so hosts never get disconnected).
		down := map[int]bool{}

		for step := 0; step < 60; step++ {
			switch op := rng.Intn(3); op {
			case 0: // cost churn on a random link
				e := edges[rng.Intn(len(edges))]
				old := CostChange{A: e.A, B: e.B, OldAB: g.Cost(e.A, e.B), OldBA: g.Cost(e.B, e.A)}
				if old.OldAB == 0 || old.OldBA == 0 {
					continue // direction disabled reports 0; skip
				}
				g.SetLinkCost(e.A, e.B, 1+rng.Intn(10), 1+rng.Intn(10))
				full.RecomputeCostChanges(old)
				tiny.RecomputeCostChanges(old)
				big.RecomputeCostChanges(old)
			case 1: // link down / up (router-router links only)
				ei := rng.Intn(len(edges))
				e := edges[ei]
				if g.Node(e.A).Kind != topology.Router || g.Node(e.B).Kind != topology.Router {
					continue
				}
				if down[ei] {
					g.SetLinkEnabled(e.A, e.B, true)
					delete(down, ei)
				} else {
					g.SetLinkEnabled(e.A, e.B, false)
					down[ei] = true
				}
				changed := [2]topology.NodeID{e.A, e.B}
				full.RecomputeLinks(changed)
				tiny.RecomputeLinks(changed)
				big.RecomputeLinks(changed)
			case 2: // query a burst of random sources (populates + evicts)
				for k := 0; k < 5; k++ {
					s := topology.NodeID(rng.Intn(n))
					d := topology.NodeID(rng.Intn(n))
					_, dist := oracleRow(g, s)
					if tiny.Dist(s, d) != dist[d] || big.Dist(s, d) != dist[d] || full.Dist(s, d) != dist[d] {
						t.Fatalf("trial %d step %d: dist[%d][%d] diverged", trial, step, s, d)
					}
				}
			}
			// Full-row spot check every few steps.
			if step%10 == 9 {
				for k := 0; k < 4; k++ {
					s := topology.NodeID(rng.Intn(n))
					assertRowMatches(t, tiny, s, "tiny-lru")
					assertRowMatches(t, big, s, "big-lru")
					assertRowMatches(t, full, s, "compute")
				}
			}
		}
		if st := tiny.Stats(); st.Evictions == 0 {
			t.Fatalf("trial %d: tiny LRU never evicted (stats %+v) — property not exercised", trial, st)
		}
	}
}

// TestNewFillsUpFrontWhenEveryRowFits: New fills every row at
// construction exactly when the default capacity covers every node
// (up to 4096), and is a bounded, empty router above that.
func TestNewFillsUpFrontWhenEveryRowFits(t *testing.T) {
	small := topology.Line(8, false)
	if st := New(small).Stats(); st.Cached != 8 {
		t.Fatalf("New on 8 nodes: %d rows filled, want 8", st.Cached)
	}
	if c := defaultCapacity(4096); c != 4096 {
		t.Fatalf("default capacity at 4096 nodes = %d, want 4096", c)
	}
	big := New(topology.Line(4097, false))
	if big.MaxSources() != 4096 || big.Stats().Cached != 0 {
		t.Fatalf("New on 4097 nodes: capacity %d, %d rows filled; want 4096, 0",
			big.MaxSources(), big.Stats().Cached)
	}
}

func TestLazyDefaultCapClamped(t *testing.T) {
	g := topology.Line(8, false)
	l := NewLazy(g, LazyOptions{})
	if l.MaxSources() != 4096 {
		t.Fatalf("tiny graph cap = %d, want 4096 (upper clamp)", l.MaxSources())
	}
}

func TestLazyMemoryBytes(t *testing.T) {
	g := topology.Line(10, false)
	l := NewLazy(g, LazyOptions{MaxSources: 2})
	if l.MemoryBytes() != 0 {
		t.Fatalf("fresh lazy router reports %d bytes", l.MemoryBytes())
	}
	l.Dist(0, 9)
	if want := int64(10 * rowBytes); l.MemoryBytes() != want {
		t.Fatalf("one row = %d bytes, want %d", l.MemoryBytes(), want)
	}
	// Eviction recycles storage: bytes stay at cap.
	l.Dist(1, 9)
	l.Dist(2, 9)
	if want := int64(3 * 10 * rowBytes); l.MemoryBytes() > want {
		t.Fatalf("post-eviction %d bytes, want <= %d", l.MemoryBytes(), want)
	}
}

func TestEstimateAsymmetryExactOnSmallGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := topology.Random(topology.RandomConfig{Routers: 20, AvgDegree: 4, Hosts: false}, rng)
	g.RandomizeCosts(rng, 1, 10)
	r := Compute(g)
	exact := exactAsymmetry(r)
	got := EstimateAsymmetryFraction(r, 1, 0)
	if got != exact {
		t.Fatalf("estimator within budget = %v, want exact %v", got, exact)
	}
}

func TestEstimateAsymmetrySampledConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := topology.Random(topology.RandomConfig{Routers: 40, AvgDegree: 5, Hosts: false}, rng)
	g.RandomizeCosts(rng, 1, 10)
	r := Compute(g)
	exact := exactAsymmetry(r)
	// Force the sampling path with a budget below the pair count.
	got := EstimateAsymmetryFraction(r, 1, 700)
	if diff := got - exact; diff < -0.12 || diff > 0.12 {
		t.Fatalf("sampled %v too far from exact %v", got, exact)
	}
}

// TestLazyEvictsLeastRecentlyUsed pins the eviction order, which the
// answer-only property tests above cannot see: a hit must keep a row
// from being the next victim whatever its NodeID.
func TestLazyEvictsLeastRecentlyUsed(t *testing.T) {
	g := topology.Line(6, false)
	l := NewLazy(g, LazyOptions{MaxSources: 2})
	l.Dist(0, 5) // fill A
	l.Dist(1, 5) // fill B
	l.Dist(0, 4) // hit A: B is now the older row
	l.Dist(2, 5) // fill C, evicting one
	if !l.Cached(0) || l.Cached(1) || !l.Cached(2) {
		t.Fatalf("cached after hit-then-fill: 0=%v 1=%v 2=%v, want true false true",
			l.Cached(0), l.Cached(1), l.Cached(2))
	}
}

// TestLazyLRUAgainstReference drives a capped router with seeded random
// queries — runs against one source, fills into recycled rows, hits
// through both NextHop and Dist — and checks the resident set against a
// reference recency list after every query.
func TestLazyLRUAgainstReference(t *testing.T) {
	const cap = 4
	rng := rand.New(rand.NewSource(21))
	g := topology.Line(12, false)
	n := g.NumNodes()
	l := NewLazy(g, LazyOptions{MaxSources: cap})
	var recent []topology.NodeID // least recently used first
	for step := 0; step < 2000; step++ {
		s := topology.NodeID(rng.Intn(n))
		for k := rng.Intn(3); k >= 0; k-- {
			if rng.Intn(2) == 0 {
				l.NextHop(s, topology.NodeID(rng.Intn(n)))
			} else {
				l.Dist(s, topology.NodeID(rng.Intn(n)))
			}
		}
		for i, r := range recent {
			if r == s {
				recent = append(recent[:i], recent[i+1:]...)
				break
			}
		}
		if recent = append(recent, s); len(recent) > cap {
			recent = recent[1:]
		}
		resident := map[topology.NodeID]bool{}
		for _, r := range recent {
			resident[r] = true
		}
		for v := 0; v < n; v++ {
			if id := topology.NodeID(v); l.Cached(id) != resident[id] {
				t.Fatalf("step %d (query from %d): Cached(%d) = %v, reference list %v",
					step, s, id, l.Cached(id), recent)
			}
		}
	}
}
