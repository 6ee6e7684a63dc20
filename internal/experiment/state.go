package experiment

import (
	"math/rand"

	"hbh/internal/metrics"
	"hbh/internal/topology"
)

// ForwardingState runs the A4 extension experiment: the forwarding
// state footprint of the recursive-unicast protocols versus classical
// IP multicast, as a function of group size.
//
// REUNITE's founding observation (quoted in §2.1 of the HBH paper) is
// that most routers of a multicast tree are non-branching, yet every
// classical multicast protocol keeps per-group forwarding state in all
// of them. The recursive-unicast protocols keep data-plane state (MFT
// rows) only at branching nodes; non-branching routers have at most a
// control-plane MCT entry. This experiment counts, at convergence:
//
//   - <proto>-MFT: total data-plane entries across all routers + source
//   - <proto>-MCT: routers holding only control-plane state
//   - IP-multicast: routers on the PIM-SS tree, each of which would
//     hold one forwarding entry in classical IP multicast
func ForwardingState(runs int, seed int64) *Figure {
	sizes := RandomSizes()
	fig := &Figure{
		ID:     "A4",
		Title:  "Forwarding state vs group size (50-node random topology)",
		XLabel: "Number of receivers",
		YLabel: "table entries / routers with state",
		Runs:   runs,
	}
	names := []string{
		"HBH-branch-rtrs", "HBH-entries",
		"REU-branch-rtrs", "REU-entries",
		"IP-mcast-rtrs",
	}
	for _, n := range names {
		fig.Series = append(fig.Series, metrics.NewSeries(n, sizes))
	}
	at := func(name string, size int) *metrics.Accumulator {
		return fig.SeriesByName(name).At(size)
	}

	grid(DefaultWorkers, len(sizes), runs, func(si, run, _ int) func() {
		size := sizes[si]
		s := seed + int64(si)*1_000_003 + int64(run)*7919
		p := drawPoint(TopoRandom50, s, size, paperCosts)

		// Each dynamic protocol runs on its own network over identical
		// costs and members, its join jitter drawn from a fresh stream.
		var fps [2]stateFootprint
		for i, proto := range []Protocol{HBH, REUNITE} {
			p.rng = rand.New(rand.NewSource(s))
			sess := p.session(RunConfig{Topo: TopoRandom50, Protocol: proto, Receivers: size, Seed: s})
			sess.settle(defaultConvergeIntervals)
			fps[i] = sess.state()
		}

		// Classical IP multicast reference: every router on the
		// source tree holds group forwarding state.
		seen := map[topology.NodeID]bool{}
		for _, m := range p.members {
			for _, v := range p.Routing.Path(m, p.source) { // reverse SPT branch
				if p.Graph.Node(v).Kind == topology.Router {
					seen[v] = true
				}
			}
		}
		ipRouters := float64(len(seen))
		return func() {
			at("HBH-branch-rtrs", size).Add(float64(fps[0].MFTRouters))
			at("HBH-entries", size).Add(float64(fps[0].MFTEntries))
			at("REU-branch-rtrs", size).Add(float64(fps[1].MFTRouters))
			at("REU-entries", size).Add(float64(fps[1].MFTEntries))
			at("IP-mcast-rtrs", size).Add(ipRouters)
		}
	})
	return fig
}
