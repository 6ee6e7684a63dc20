// QoS routing: the paper's §5 future work, made concrete. HBH builds
// FORWARD trees on whatever unicast routing the network runs, so
// swapping the delay-shortest tables for widest-path (maximum
// bottleneck bandwidth) tables gives every member the best attainable
// bandwidth from the source — no protocol changes needed. Reverse-path
// protocols cannot do this: their trees follow the receiver->source
// direction, whose bandwidths are unrelated under asymmetric
// capacities.
//
//	go run ./examples/qosrouting
package main

import (
	"fmt"
	"math/rand"

	"hbh"
	"hbh/internal/unicast"
)

func main() {
	g := hbh.ISPTopology()
	rng := rand.New(rand.NewSource(21))
	g.RandomizeCosts(rng, 1, 10)
	g.RandomizeBandwidths(rng, 10, 100) // asymmetric capacities

	// Build the SAME physical network twice: once routed for delay,
	// once routed for bandwidth.
	delayTables := unicast.Compute(g)
	widestTables := unicast.ComputeWidest(g)

	memberHosts := []hbh.NodeID{21, 26, 31, 35}

	fmt.Println("HBH over two unicast substrates (same links, same costs, same members):")
	fmt.Printf("%-18s %16s %16s\n", "substrate", "mean delay", "mean bottleneck")

	for _, sub := range []struct {
		name    string
		routing unicast.Router
	}{
		{"delay-shortest", delayTables},
		{"widest-path", widestTables},
	} {
		nw := newNetworkWith(g, sub.routing)
		cfg := hbh.DefaultConfig()
		nw.EnableHBH(cfg)
		src := nw.NewHBHSource(hbh.ISPSourceHost, hbh.Group(0), cfg)
		var members []hbh.Member
		for i, host := range memberHosts {
			r := nw.NewHBHReceiver(host, src.Channel(), cfg)
			nw.At(hbh.Time(10+15*i), r.Join)
			members = append(members, r)
		}
		nw.RunFor(5000)
		res := nw.Probe(src.SendData, members...)

		var bwSum float64
		for _, m := range members {
			path := res.PathTo(g, hbh.ISPSourceHost, g.MustByAddr(m.Addr()))
			bottle := 1 << 30
			for _, l := range path {
				if bw := g.Bandwidth(l.From, l.To); bw < bottle {
					bottle = bw
				}
			}
			bwSum += float64(bottle)
		}
		fmt.Printf("%-18s %16.1f %16.1f\n", sub.name, res.MeanDelay(), bwSum/float64(len(members)))
	}

	fmt.Println("\nAttainable optimum per member (widest-path bottleneck from the source):")
	for _, host := range memberHosts {
		fmt.Printf("  member %v: %d\n", g.Node(host).Addr, widestTables.Bottleneck(hbh.ISPSourceHost, host))
	}
	fmt.Println("\nOn the widest-path substrate HBH hits these optima exactly — the")
	fmt.Println("tree construction asks nothing of the routing beyond forward paths.")
}

// newNetworkWith builds a simulated network over pre-computed routing
// tables (the facade's NewNetwork computes delay tables; this variant
// injects alternatives).
func newNetworkWith(g *hbh.Graph, routing unicast.Router) *hbh.Network {
	return hbh.NewNetworkWithRouting(g, routing)
}
