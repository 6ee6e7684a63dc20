package topology

import (
	"math/rand"
	"testing"
)

func TestWaxmanShape(t *testing.T) {
	g := Waxman(WaxmanConfig{Routers: 40, Alpha: 0.2, Beta: 0.25, Hosts: true},
		rand.New(rand.NewSource(7)))
	if got := len(g.Routers()); got != 40 {
		t.Fatalf("routers = %d, want 40", got)
	}
	if got := len(g.Hosts()); got != 40 {
		t.Fatalf("hosts = %d, want 40", got)
	}
	if !g.Connected() {
		t.Fatal("waxman graph not connected")
	}
	// Every host hangs off exactly one router.
	for _, h := range g.Hosts() {
		g.AttachedRouter(h) // panics if mis-wired
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	a := Waxman(WaxmanConfig{Routers: 30, Hosts: false}, rand.New(rand.NewSource(42)))
	b := Waxman(WaxmanConfig{Routers: 30, Hosts: false}, rand.New(rand.NewSource(42)))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge count differs: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	const n, m = 400, 2
	g := BarabasiAlbert(BAConfig{Routers: n, M: m}, rand.New(rand.NewSource(3)))
	if got := len(g.Routers()); got != n {
		t.Fatalf("routers = %d, want %d", got, n)
	}
	if got := len(g.Hosts()); got != 0 {
		t.Fatalf("hosts = %d, want 0", got)
	}
	if !g.Connected() {
		t.Fatal("BA graph not connected")
	}
	// Edge count is exactly seed clique + m per arriving node.
	want := m*(m+1)/2 + (n-m-1)*m
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	// Preferential attachment must produce hubs: the maximum degree has
	// to tower over the ~2m average (a flat random graph of this size
	// stays near the average; the power-law tail is the point).
	maxDeg := 0
	for _, r := range g.Routers() {
		if d := len(g.Neighbors(r)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 5*m {
		t.Fatalf("max degree %d shows no heavy tail (m=%d)", maxDeg, m)
	}
}

func TestBarabasiAlbertScales(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node generation in -short mode")
	}
	g := BarabasiAlbert(BAConfig{Routers: 10_000, M: 2}, rand.New(rand.NewSource(1)))
	if !g.Connected() {
		t.Fatal("10k BA graph not connected")
	}
}

func TestTransitStubShape(t *testing.T) {
	cfg := TransitStubConfig{
		Transits: 4, TransitDegree: 3, Stubs: 8, StubRouters: 5,
		StubDegree: 2.5, ExtraStubLinks: 3, Hosts: true,
	}
	g := TransitStub(cfg, rand.New(rand.NewSource(11)))
	wantRouters := cfg.Transits + cfg.Stubs*cfg.StubRouters
	if got := len(g.Routers()); got != wantRouters {
		t.Fatalf("routers = %d, want %d", got, wantRouters)
	}
	if got := len(g.Hosts()); got != wantRouters {
		t.Fatalf("hosts = %d, want %d", got, wantRouters)
	}
	if !g.Connected() {
		t.Fatal("transit-stub graph not connected")
	}
}
