package unicast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/testseed"
	"hbh/internal/topology"
)

func TestWidestPicksWiderPath(t *testing.T) {
	// A -> D via B: cheap but narrow; via C: expensive but wide.
	g := topology.New()
	a := g.AddNode(topology.Router, addr.RouterAddr(0), "A")
	b := g.AddNode(topology.Router, addr.RouterAddr(1), "B")
	c := g.AddNode(topology.Router, addr.RouterAddr(2), "C")
	d := g.AddNode(topology.Router, addr.RouterAddr(3), "D")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, d, 1, 1)
	g.AddLink(a, c, 5, 5)
	g.AddLink(c, d, 5, 5)
	g.SetBandwidth(a, b, 10)
	g.SetBandwidth(b, d, 10)
	g.SetBandwidth(a, c, 80)
	g.SetBandwidth(c, d, 90)

	w := ComputeWidest(g)
	if got := w.Bottleneck(a, d); got != 80 {
		t.Errorf("bottleneck A->D = %d, want 80", got)
	}
	if next := w.NextHop(a, d); next != c {
		t.Errorf("next hop A->D = %d, want C", next)
	}
	if got := w.Dist(a, d); got != 10 {
		t.Errorf("cost along widest path = %d, want 10", got)
	}
	// Delay-shortest would have picked B.
	if next := Compute(g).NextHop(a, d); next != b {
		t.Errorf("delay next hop = %d, want B", next)
	}
}

func TestWidestTieBreaksByCost(t *testing.T) {
	// Two equally wide paths; the cheaper one wins.
	g := topology.New()
	a := g.AddNode(topology.Router, addr.RouterAddr(0), "A")
	b := g.AddNode(topology.Router, addr.RouterAddr(1), "B")
	c := g.AddNode(topology.Router, addr.RouterAddr(2), "C")
	d := g.AddNode(topology.Router, addr.RouterAddr(3), "D")
	g.AddLink(a, b, 9, 9)
	g.AddLink(b, d, 9, 9)
	g.AddLink(a, c, 1, 1)
	g.AddLink(c, d, 1, 1)
	// All links same bandwidth.
	for _, e := range g.Edges() {
		g.SetBandwidth(e.A, e.B, 50)
		g.SetBandwidth(e.B, e.A, 50)
	}
	w := ComputeWidest(g)
	if next := w.NextHop(a, d); next != c {
		t.Errorf("next hop = %d, want the cheaper C", next)
	}
	if w.Bottleneck(a, d) != 50 {
		t.Errorf("bottleneck = %d", w.Bottleneck(a, d))
	}
}

// TestQuickWidestInvariants: on random graphs, the selected path (a)
// exists, (b) has bottleneck equal to the reported one, and (c) the
// reported bottleneck is maximal (cross-checked by brute force on
// small graphs).
func TestQuickWidestInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 4 + rng.Intn(6), AvgDegree: 2.5, Hosts: false,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		g.RandomizeBandwidths(rng, 10, 100)
		w := ComputeWidest(g)
		n := g.NumNodes()
		for s := 0; s < n; s++ {
			// Brute force: Bellman-Ford-style widest relaxation.
			want := make([]int, n)
			want[s] = 1 << 30
			for iter := 0; iter < n; iter++ {
				for v := 0; v < n; v++ {
					for _, nb := range g.Neighbors(topology.NodeID(v)) {
						cand := want[v]
						if bw := g.Bandwidth(topology.NodeID(v), nb.To); bw < cand {
							cand = bw
						}
						if cand > want[nb.To] {
							want[nb.To] = cand
						}
					}
				}
			}
			for v := 0; v < n; v++ {
				if v == s {
					continue
				}
				S, V := topology.NodeID(s), topology.NodeID(v)
				if w.Bottleneck(S, V) != want[v] {
					return false
				}
				// Path consistency: walk next hops, compute bottleneck.
				p := w.Path(S, V)
				if len(p) < 2 {
					return false
				}
				got := 1 << 30
				for i := 0; i+1 < len(p); i++ {
					bw := g.Bandwidth(p[i], p[i+1])
					if bw == 0 {
						return false // not a link
					}
					if bw < got {
						got = bw
					}
				}
				if got != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthAccessors(t *testing.T) {
	g := topology.Line(3, false)
	if g.Bandwidth(0, 1) != topology.DefaultBandwidth {
		t.Errorf("unset bandwidth = %d, want default", g.Bandwidth(0, 1))
	}
	if g.Bandwidth(0, 2) != 0 {
		t.Error("bandwidth on missing link nonzero")
	}
	g.SetBandwidth(0, 1, 42)
	if g.Bandwidth(0, 1) != 42 || g.Bandwidth(1, 0) != topology.DefaultBandwidth {
		t.Error("directed bandwidth set incorrectly")
	}
	// Clone preserves bandwidths.
	c := g.Clone()
	if c.Bandwidth(0, 1) != 42 {
		t.Error("clone lost bandwidth")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetBandwidth on missing link did not panic")
		}
	}()
	g.SetBandwidth(0, 2, 10)
}
