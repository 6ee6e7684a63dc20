package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
	"hbh/internal/testseed"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestQuickUnicastDelivery: on any connected random topology with any
// costs, a unicast packet between any two nodes is delivered exactly
// once, with delay equal to the shortest-path distance, traversing
// exactly the links of the canonical path.
func TestQuickUnicastDelivery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 5 + rng.Intn(15), AvgDegree: 3, Hosts: true,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		routing := unicast.Compute(g)
		sim := eventsim.New()
		net := New(sim, g, routing)

		n := g.NumNodes()
		for trial := 0; trial < 10; trial++ {
			from := topology.NodeID(rng.Intn(n))
			to := topology.NodeID(rng.Intn(n))
			if from == to {
				continue
			}
			var deliveredAt eventsim.Time
			delivered := 0
			net.Node(to).SetDeliver(func(_ ProtoNode, msg packet.Message) {
				delivered++
				deliveredAt = sim.Now()
			})
			var hops int
			tap := func(a, b topology.NodeID, msg packet.Message) { hops++ }
			net.AddTap(tap)

			start := sim.Now()
			net.Node(from).SendUnicast(&packet.Data{
				Header: packet.Header{
					Type:    packet.TypeData,
					Channel: addr.Channel{S: addr.MustParse("10.9.9.9"), G: addr.GroupAddr(0)},
					Dst:     g.Node(to).Addr,
				},
				Seq: uint32(trial),
			})
			if err := sim.RunAll(); err != nil {
				return false
			}
			if delivered != 1 {
				return false
			}
			if deliveredAt-start != eventsim.Time(routing.Dist(from, to)) {
				return false
			}
			net.Node(to).SetDeliver(nil)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}
