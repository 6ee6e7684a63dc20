package unicast

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hbh/internal/topology"
)

// TestLazyConcurrentReadersBitIdentical hammers a shared bounded router
// from many goroutines — with a cap small enough that every burst
// churns the LRU (evictions, free-list recycling, clock stamps) — and
// asserts every answer is bit-identical to a serially-queried reference
// router that saw the same cost-churn history. Before the router grew its
// read/write lock this failed under -race (concurrent map writes and
// torn row recycling); it now doubles as the determinism proof that
// cache scheduling never leaks into routing answers, because
// dijkstraInto ties break deterministically no matter which goroutine
// recomputes a row.
func TestLazyConcurrentReadersBitIdentical(t *testing.T) {
	const (
		routers = 48
		epochs  = 6
		readers = 8
		queries = 400
	)
	rng := rand.New(rand.NewSource(77))
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: routers, M: 2}, rng)
	ref := g.Clone()

	churn := rand.New(rand.NewSource(78))
	g.RandomizeCosts(churn, 1, 12)
	ref.SkipRandomizeCosts(rand.New(rand.NewSource(78)), 1, 12)
	// Replay the identical cost assignment on the clone so both routers
	// see the same graph at every epoch.
	syncCosts := func() {
		for _, e := range g.Edges() {
			ref.SetLinkCost(e.A, e.B, e.CostAB, e.CostBA)
		}
	}
	syncCosts()

	shared := NewLazy(g, LazyOptions{MaxSources: 6})
	serial := NewLazy(ref, LazyOptions{MaxSources: 6})

	for epoch := 0; epoch < epochs; epoch++ {
		// Serial churn phase: perturb a handful of links identically on
		// both graphs and feed both routers the same invalidations.
		if epoch > 0 {
			edges := g.Edges()
			var changes []CostChange
			for k := 0; k < 5; k++ {
				e := edges[churn.Intn(len(edges))]
				nc := 1 + churn.Intn(12)
				changes = append(changes, CostChange{A: e.A, B: e.B, OldAB: e.CostAB, OldBA: e.CostBA})
				g.SetLinkCost(e.A, e.B, nc, nc)
			}
			syncCosts()
			shared.RecomputeCostChanges(changes...)
			serial.RecomputeCostChanges(changes...)
		}

		// Concurrent read phase: every reader works a distinct seeded
		// query list; answers are recorded and compared to the serial
		// reference afterwards, so the assertion itself is race-free.
		type answer struct {
			from, to topology.NodeID
			next     topology.NodeID
			dist     int
		}
		results := make([][]answer, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				qr := rand.New(rand.NewSource(int64(1000*epoch + r)))
				out := make([]answer, 0, queries)
				for q := 0; q < queries; q++ {
					from := topology.NodeID(qr.Intn(routers))
					to := topology.NodeID(qr.Intn(routers))
					out = append(out, answer{from, to, shared.NextHop(from, to), shared.Dist(from, to)})
				}
				results[r] = out
			}(r)
		}
		wg.Wait()

		for r, out := range results {
			for _, a := range out {
				if want := serial.NextHop(a.from, a.to); a.next != want {
					t.Fatalf("epoch %d reader %d: NextHop(%d,%d) = %d, serial %d",
						epoch, r, a.from, a.to, a.next, want)
				}
				if want := serial.Dist(a.from, a.to); a.dist != want {
					t.Fatalf("epoch %d reader %d: Dist(%d,%d) = %d, serial %d",
						epoch, r, a.from, a.to, a.dist, want)
				}
			}
		}
	}

	if st := shared.Stats(); st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("hammer did not exercise the cache: stats %+v", st)
	}
	runtime.KeepAlive(serial)
}

// TestLazyConcurrentInvalidation overlaps Recompute* hooks with reader
// bursts: invalidation takes the write lock, so dropping rows while
// queries are in flight must neither race nor return a stale mix. The
// graph itself is never mutated here — only the cache — so every
// answer must equal the oracle throughout.
func TestLazyConcurrentInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: 32, M: 2}, rng)
	g.RandomizeCosts(rng, 1, 10)
	n := g.NumNodes()
	firsts, dists := make([][]topology.NodeID, n), make([][]int, n)
	for s := range n {
		firsts[s], dists[s] = oracleRow(g, topology.NodeID(s))
	}
	l := NewLazy(g, LazyOptions{MaxSources: 4})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		edges := g.Edges()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := edges[i%len(edges)]
			// Costs are unchanged, so the min(old,new) predicate sees
			// the live values: a sound (over-)invalidation workload.
			l.RecomputeCostChanges(CostChange{A: e.A, B: e.B, OldAB: e.CostAB, OldBA: e.CostBA})
			if i%7 == 0 {
				l.Recompute()
			}
		}
	}()

	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(int64(900 + r)))
			for q := 0; q < 500; q++ {
				from := topology.NodeID(qr.Intn(n))
				to := topology.NodeID(qr.Intn(n))
				if got, want := l.Dist(from, to), dists[from][to]; got != want {
					t.Errorf("Dist(%d,%d) = %d during invalidation, oracle %d", from, to, got, want)
					return
				}
				if got, want := l.NextHop(from, to), firsts[from][to]; got != want {
					t.Errorf("NextHop(%d,%d) = %d during invalidation, oracle %d", from, to, got, want)
					return
				}
			}
		}(r)
	}
	// Readers finish first; then stop the invalidator.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	defer close(stop)
}

// TestResidentConcurrentFillAndHit runs the resident regime under
// -race: 8 goroutines query a router whose capacity covers every node,
// so rows fill on first touch under the lock while other goroutines hit
// filled rows with no lock at all. The hooks run only between bursts
// (the resident contract), after a cost change and a link cut, and
// every answer matches the oracle of the graph at that burst.
func TestResidentConcurrentFillAndHit(t *testing.T) {
	const readers, queries = 8, 300
	rng := rand.New(rand.NewSource(31))
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: 40, M: 2, Hosts: true}, rng)
	g.RandomizeCosts(rng, 1, 10)
	n := g.NumNodes()
	l := NewLazy(g, LazyOptions{})
	if l.MaxSources() < n {
		t.Fatalf("capacity %d below %d nodes: not the resident regime", l.MaxSources(), n)
	}
	edges := g.Edges()
	for burst := 0; burst < 6; burst++ {
		switch e := edges[rng.Intn(len(edges))]; burst % 3 {
		case 1:
			old := CostChange{A: e.A, B: e.B, OldAB: e.CostAB, OldBA: e.CostBA}
			g.SetLinkCost(e.A, e.B, 1+rng.Intn(10), 1+rng.Intn(10))
			l.RecomputeCostChanges(old)
		case 2:
			g.SetLinkEnabled(e.A, e.B, !g.LinkEnabled(e.A, e.B))
			l.RecomputeLinks([2]topology.NodeID{e.A, e.B})
		}
		firsts, dists := make([][]topology.NodeID, n), make([][]int, n)
		for s := range n {
			firsts[s], dists[s] = oracleRow(g, topology.NodeID(s))
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				qr := rand.New(rand.NewSource(int64(100*burst + r)))
				for q := 0; q < queries; q++ {
					from, to := topology.NodeID(qr.Intn(n)), topology.NodeID(qr.Intn(n))
					if got, want := l.NextHop(from, to), firsts[from][to]; got != want {
						t.Errorf("burst %d: NextHop(%d,%d) = %d, oracle %d", burst, from, to, got, want)
						return
					}
					if got, want := l.Dist(from, to), dists[from][to]; got != want {
						t.Errorf("burst %d: Dist(%d,%d) = %d, oracle %d", burst, from, to, got, want)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
	if st := l.Stats(); st.Hits != 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("stats %+v: want misses and invalidations, and no counted hits", st)
	}
}
