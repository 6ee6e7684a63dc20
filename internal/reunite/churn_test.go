package reunite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/testseed"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestQuickChurnDelivers is REUNITE's robustness property: whatever
// the join/leave schedule and asymmetric costs, the protocol keeps
// DELIVERING to every remaining member after churn settles. Unlike the
// HBH property test, no shortest-path or duplication-free guarantees
// are asserted — REUNITE does not make them (its detours and shared-
// link duplications are the paper's point) — only liveness.
func TestQuickChurnDelivers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(topology.RandomConfig{
			Routers: 8 + rng.Intn(8), AvgDegree: 3.2, Hosts: true,
		}, rng)
		g.RandomizeCosts(rng, 1, 10)
		sim := eventsim.New()
		net := netsim.New(sim, g, unicast.Compute(g))
		cfg := DefaultConfig()
		for _, r := range g.Routers() {
			AttachRouter(net.Node(r), cfg)
		}
		src := AttachSource(net.Node(g.Hosts()[0]), addr.GroupAddr(0), cfg)

		n := 2 + rng.Intn(4)
		pool := append([]topology.NodeID(nil), g.Hosts()[1:]...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		type mem struct {
			r      *Receiver
			leaves bool
		}
		var members []mem
		for i := 0; i < n && i < len(pool); i++ {
			rcv := AttachReceiver(net.Node(pool[i]), src.Channel(), cfg)
			joinAt := eventsim.Time(rng.Float64() * 400)
			sim.At(joinAt, rcv.Join)
			m := mem{r: rcv, leaves: rng.Intn(3) == 0 && i > 0}
			if m.leaves {
				sim.At(joinAt+300+eventsim.Time(rng.Float64()*500), rcv.Leave)
			}
			members = append(members, m)
		}
		if err := sim.Run(9000); err != nil {
			return false
		}
		var stayed []mtree.Member
		for _, m := range members {
			if !m.leaves {
				stayed = append(stayed, m.r)
			}
		}
		if len(stayed) == 0 {
			return true
		}
		// Liveness with retry: REUNITE may be mid-reconfiguration at
		// any instant; three probe windows are ample.
		var res *mtree.Result
		for attempt := 0; attempt < 3; attempt++ {
			res = mtree.Probe(net, func() uint32 { return src.SendData(nil) }, stayed)
			if len(res.Missing) == 0 {
				return true
			}
			if err := sim.Run(sim.Now() + 1000); err != nil {
				return false
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}
