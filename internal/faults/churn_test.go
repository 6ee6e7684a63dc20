package faults

import (
	"math/rand"
	"strings"
	"testing"

	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
)

func churnTestGraph(seed int64) *topology.Graph {
	return topology.Random(topology.RandomConfig{Routers: 12, AvgDegree: 4, Hosts: true},
		rand.New(rand.NewSource(seed)))
}

// coreCosts snapshots both directed costs of every core link.
func coreCosts(g *topology.Graph) map[[2]topology.NodeID][2]int {
	m := map[[2]topology.NodeID][2]int{}
	for _, l := range coreLinks(g) {
		m[l] = [2]int{g.Cost(l[0], l[1]), g.Cost(l[1], l[0])}
	}
	return m
}

// movedLinks counts the core links whose costs differ from before.
func movedLinks(g *topology.Graph, before map[[2]topology.NodeID][2]int) int {
	n := 0
	for l, c := range coreCosts(g) {
		if c != before[l] {
			n++
		}
	}
	return n
}

// churnTrace attaches an observer to net and returns the fault lines
// the churner emits, one per tick that walked a link.
func churnTrace(net *netsim.Network) *[]string {
	var lines []string
	o := obs.New(nil)
	o.AddSink(obs.NewTextSink(func(l string) {
		if strings.Contains(l, "COST-CHURN") {
			lines = append(lines, l)
		}
	}))
	net.SetObserver(o)
	return &lines
}

// TestChurnerDeterministic asserts two identically seeded churners
// over identical substrates walk the costs (and the routing) to
// bit-identical states.
func TestChurnerDeterministic(t *testing.T) {
	run := func() (*topology.Graph, []string) {
		g := churnTestGraph(4)
		net, sim := build(g)
		trace := churnTrace(net)
		c := NewChurner(net, ChurnConfig{
			Period: 10, Amplitude: 2, RNG: rand.New(rand.NewSource(77)),
		})
		c.Start()
		if err := sim.Run(200); err != nil {
			t.Fatal(err)
		}
		return g, *trace
	}
	g1, tr1 := run()
	g2, tr2 := run()
	if strings.Join(tr1, "\n") != strings.Join(tr2, "\n") {
		t.Fatalf("same-seed churn traces diverged:\n%s\n---\n%s",
			strings.Join(tr1, "\n"), strings.Join(tr2, "\n"))
	}
	if len(tr1) == 0 || !strings.Contains(tr1[len(tr1)-1], "tick 20:") {
		t.Errorf("200 time units at period 10 should end on tick 20:\n%s", strings.Join(tr1, "\n"))
	}
	for _, e := range g1.Edges() {
		if g1.Cost(e.A, e.B) != g2.Cost(e.A, e.B) || g1.Cost(e.B, e.A) != g2.Cost(e.B, e.A) {
			t.Fatalf("same-seed churn left different costs on %d-%d", e.A, e.B)
		}
	}
}

// TestChurnerRoutingMatchesScratch asserts the incremental recompute
// the churner batches per tick keeps the tables exactly equal to a
// from-scratch Dijkstra over the walked costs — the cost-increase
// soundness fix in unicast.RecomputeCostChanges, exercised end to end.
func TestChurnerRoutingMatchesScratch(t *testing.T) {
	g := churnTestGraph(6)
	before := coreCosts(g)
	net, sim := build(g)
	c := NewChurner(net, ChurnConfig{
		Period: 10, Amplitude: 3, RNG: rand.New(rand.NewSource(5)),
	})
	c.Start()
	for _, at := range []eventsim.Time{55, 155, 255} {
		sim.At(at, func() { routingMatchesScratch(t, g, net.Routing(), "mid-churn") })
	}
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	routingMatchesScratch(t, g, net.Routing(), "after churn")
	if movedLinks(g, before) == 0 {
		t.Fatal("churner perturbed nothing; the test exercised no recompute")
	}
}

// TestChurnerClampsCosts asserts every walked cost stays inside the
// evaluation's cost range, and that a large walk reaches both ends of
// it.
func TestChurnerClampsCosts(t *testing.T) {
	g := churnTestGraph(7)
	before := coreCosts(g)
	net, sim := build(g)
	c := NewChurner(net, ChurnConfig{
		Period: 5, Amplitude: 5, RNG: rand.New(rand.NewSource(13)),
	})
	c.Start()
	hitLo, hitHi := false, false
	for at := eventsim.Time(10); at <= 500; at += 10 {
		sim.At(at, func() {
			for l, costs := range coreCosts(g) {
				for _, cost := range costs {
					if cost < churnLo || cost > churnHi {
						t.Fatalf("t=%v: link %v cost %d escaped clamp [%d, %d]", at, l, cost, churnLo, churnHi)
					}
					hitLo = hitLo || cost == churnLo
					hitHi = hitHi || cost == churnHi
				}
			}
		})
	}
	if err := sim.Run(500); err != nil {
		t.Fatal(err)
	}
	if movedLinks(g, before) == 0 {
		t.Fatal("churner perturbed nothing")
	}
	if !hitLo || !hitHi {
		t.Errorf("amplitude-5 walk over 100 ticks never reached the clamp: lo %v, hi %v", hitLo, hitHi)
	}
}

// TestChurnerStopFreezesCosts asserts Stop ends the walk without
// snapping costs back: the landscape stays where churn left it.
func TestChurnerStopFreezesCosts(t *testing.T) {
	g := churnTestGraph(8)
	net, sim := build(g)
	trace := churnTrace(net)
	c := NewChurner(net, ChurnConfig{
		Period: 10, Amplitude: 2, RNG: rand.New(rand.NewSource(3)),
	})
	c.Start()
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	ticks := len(*trace)
	if ticks == 0 {
		t.Fatal("churner walked nothing before Stop")
	}
	frozen := coreCosts(g)
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	if n := len(*trace) - ticks; n != 0 {
		t.Errorf("churner walked links on %d more ticks after Stop", n)
	}
	for l, want := range frozen {
		if got := [2]int{g.Cost(l[0], l[1]), g.Cost(l[1], l[0])}; got != want {
			t.Errorf("cost of %v changed after Stop: %v -> %v", l, want, got)
		}
	}
	// Stop is idempotent, and a stopped churner can not be restarted
	// into a double ticker.
	c.Stop()
}

// TestChurnerValidation pins the constructor's panics.
func TestChurnerValidation(t *testing.T) {
	g := churnTestGraph(10)
	net, _ := build(g)
	for name, cfg := range map[string]ChurnConfig{
		"zero period":    {Amplitude: 1, RNG: rand.New(rand.NewSource(1))},
		"zero amplitude": {Period: 10, RNG: rand.New(rand.NewSource(1))},
		"nil rng":        {Period: 10, Amplitude: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewChurner did not panic", name)
				}
			}()
			NewChurner(net, cfg)
		}()
	}
	// Double Start panics too.
	c := NewChurner(net, ChurnConfig{Period: 10, Amplitude: 1, RNG: rand.New(rand.NewSource(1))})
	c.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	c.Start()
}
