package hbh_test

// What is left here is what bench/ (the repository benchmark, see
// bench/README.md) does not re-measure: the departure-stability,
// ablation and extension studies of DESIGN.md regenerated as testing.B
// benchmarks that report the headline comparison as custom metrics, so
// `go test -bench` output directly shows who wins:
//
//	BenchmarkAblationFusion  ...  HBH-cost 21.7  HBH-nofusion-cost 51.3
//
// plus the two substrate benchmarks no layer row covers and the
// disabled-observer zero-alloc test. The Figure 7/8 grid, single runs,
// Dijkstra, the lazy router, the forward hop, the codec and the event
// loop are priced by bench/ and by nothing here. Figure benches run a
// reduced number of runs per data point per iteration (`hbhsim -figure
// all -runs 500` performs the full evaluation).
//
// Metric naming: <protocol>-cost is mean packet copies per data packet
// (tree cost), <protocol>-delay is mean receiver delay in time units.

import (
	"fmt"
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/experiment"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"

	root "hbh"
)

// benchRuns is the per-iteration run count of the figure benches: high
// enough for stable ordering between protocols, low enough that a
// bench iteration stays in seconds.
const benchRuns = 10

func reportSeries(b *testing.B, fig *experiment.Figure, suffix string) {
	b.Helper()
	for _, s := range fig.Series {
		b.ReportMetric(s.AvgMean(), s.Name+"-"+suffix)
	}
	if fig.BadRuns > 0 {
		b.ReportMetric(float64(fig.BadRuns), "bad-runs")
	}
}

// BenchmarkStability regenerates the §3/Figure 4 departure-stability
// comparison: route changes inflicted on remaining members per
// departure.
func BenchmarkStability(b *testing.B) {
	b.ReportAllocs()
	var res *experiment.StabilityResult
	for i := 0; i < b.N; i++ {
		res = experiment.StabilityExperiment(experiment.StabilityConfig{
			Topo: experiment.TopoISP, Receivers: 8, Runs: benchRuns, Seed: int64(i + 1),
		})
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.RouteChanged.Mean(), string(row.Protocol)+"-route-changes")
	}
}

// BenchmarkAblationFusion regenerates ablation A1: HBH with the fusion
// mechanism disabled degenerates to a unicast star; the cost gap is
// what fusion buys.
func BenchmarkAblationFusion(b *testing.B) {
	b.ReportAllocs()
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.AblationFusion(benchRuns, int64(i+1))
	}
	reportSeries(b, fig, "cost")
}

// BenchmarkUnicastClouds regenerates extension A2: HBH and REUNITE
// tree cost as the fraction of multicast-capable routers varies.
func BenchmarkUnicastClouds(b *testing.B) {
	b.ReportAllocs()
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.UnicastClouds(benchRuns, int64(i+1))
	}
	reportSeries(b, fig, "cost")
}

// BenchmarkAsymmetrySweep regenerates extension A3: the receiver-delay
// gap between HBH and the reverse-path protocols as per-direction cost
// skew grows.
func BenchmarkAsymmetrySweep(b *testing.B) {
	b.ReportAllocs()
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.AsymmetrySweep(benchRuns, int64(i+1))
	}
	reportSeries(b, fig, "delay")
}

// BenchmarkForwardingState regenerates extension A4: data-plane and
// control-plane state footprint of the recursive-unicast protocols
// versus classical IP multicast.
func BenchmarkForwardingState(b *testing.B) {
	b.ReportAllocs()
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.ForwardingState(benchRuns/2+1, int64(i+1))
	}
	reportSeries(b, fig, "entries")
}

// BenchmarkControlOverhead regenerates extension A5: steady-state
// control transmissions per refresh interval.
func BenchmarkControlOverhead(b *testing.B) {
	b.ReportAllocs()
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.ControlOverhead(benchRuns/2+1, int64(i+1))
	}
	reportSeries(b, fig, "msgs")
}

// BenchmarkQoSRouting regenerates extension A7: delivered bottleneck
// bandwidth under a widest-path unicast substrate (HBH reaches the
// optimum; reverse-path trees do not).
func BenchmarkQoSRouting(b *testing.B) {
	b.ReportAllocs()
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.QoSRouting(benchRuns/2+1, int64(i+1))
	}
	reportSeries(b, fig, "bw")
}

// --- substrate micro-benchmarks ---

// BenchmarkDijkstraRecompute measures the steady-state table refresh:
// Recompute drops every row and one query per source refills it into
// the router's existing backing arrays (the path fault rerouting
// takes). The contrast with the unicast.compute_ms layer row is the
// point — Compute pays a one-time flat allocation; the refill must be
// allocation-free (TestRecomputeZeroAlloc pins it).
func BenchmarkDijkstraRecompute(b *testing.B) {
	b.ReportAllocs()
	g := topology.Random(topology.Paper50(), rand.New(rand.NewSource(1)))
	g.RandomizeCosts(rand.New(rand.NewSource(2)), 1, 10)
	r := unicast.Compute(g)
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Recompute()
		for s := range n {
			r.NextHop(topology.NodeID(s), 0)
		}
	}
}

// forwardOneHopSetup builds the one-link forwarding fixture: one data
// packet crossing one link
// (schedule, transmit, arrive, deliver) with no protocol handlers
// attached.
func forwardOneHopSetup() (*eventsim.Sim, *netsim.Network, *packet.Data, *int) {
	g := topology.Line(2, false)
	sim := eventsim.New()
	net := netsim.New(sim, g, unicast.Compute(g))
	delivered := new(int)
	net.Node(1).SetDeliver(func(netsim.ProtoNode, packet.Message) { *delivered++ })
	msg := &packet.Data{
		Header: packet.Header{
			Type:    packet.TypeData,
			Channel: root.Channel{S: 0x0A000001, G: 0xE0000001},
			Dst:     g.Node(1).Addr,
		},
	}
	return sim, net, msg, delivered
}

// BenchmarkForwardOneHopTraced is the hop with full causal tracing on
// top of the obs pipeline: counters, convergence tracker and episode
// builder attached, and every send rooted in a causal episode so each
// hop is stamped, attributed and retained. The delta against the
// netsim.forward_hop_counters_ns layer row is the price of causal
// attribution specifically; against netsim.forward_hop_ns, the whole
// observability bill.
func BenchmarkForwardOneHopTraced(b *testing.B) {
	b.ReportAllocs()
	sim, net, msg, delivered := forwardOneHopSetup()
	o := obs.New(sim.Now)
	o.EnableCounters()
	o.EnableConvergence()
	o.AddSink(obs.NewEpisodeBuilder(64))
	net.SetObserver(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Node(0).SendUnicast(msg)
		if err := sim.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	if *delivered != b.N {
		b.Fatalf("delivered %d of %d", *delivered, b.N)
	}
}

// TestForwardDisabledObsZeroAlloc pins the acceptance criterion as a
// test, not just a benchmark number: with no observer installed, the
// per-hop forwarding path performs zero heap allocations.
func TestForwardDisabledObsZeroAlloc(t *testing.T) {
	sim, net, msg, _ := forwardOneHopSetup()
	// Warm the envelope freelist (the first hop allocates its envelope).
	net.Node(0).SendUnicast(msg)
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		net.Node(0).SendUnicast(msg)
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-obs forwarding path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestReplicateZeroAlloc is the same contract one layer up: a branching
// router replicating eight ways in steady state, observer off, performs
// zero heap allocations per packet — none for the copies (each is sent
// from the engine's one scratch packet and lives in its pooled
// envelope), the hops, the duplicate-suppression windows or the
// receivers' logs. The refresh traffic is quiesced for the measurement
// (receivers leave, the source stops its tree ticker; the tables stay
// fresh for T1) because join, tree and fusion messages are allocated
// per send and would drown the figure.
func TestReplicateZeroAlloc(t *testing.T) {
	const fanout = 8
	g := topology.New()
	r0 := g.AddNode(topology.Router, addr.RouterAddr(0), "R0")
	var hosts []topology.NodeID
	for i := 0; i <= fanout; i++ {
		h := g.AddNode(topology.Host, addr.ReceiverAddr(i), fmt.Sprintf("h%d", i))
		g.AddLink(h, r0, 1, 1)
		hosts = append(hosts, h)
	}
	sim := eventsim.New()
	net := netsim.New(sim, g, unicast.Compute(g))
	cfg := core.DefaultConfig()
	core.AttachRouter(net.Node(r0), cfg)
	src := core.AttachSource(net.Node(hosts[0]), addr.GroupAddr(0), cfg)
	var rcvs []*core.Receiver
	for _, h := range hosts[1:] {
		r := core.AttachReceiver(net.Node(h), src.Channel(), cfg)
		r.Join()
		rcvs = append(rcvs, r)
	}
	if err := sim.Run(15 * cfg.TreeInterval); err != nil {
		t.Fatal(err)
	}
	for _, r := range rcvs {
		r.Leave()
	}
	src.Stop()
	const runs = 50 // two time units each, warm-up included well inside T1
	send := func() {
		src.SendData(nil)
		if err := sim.Run(sim.Now() + 2); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and grow every receiver's log to its working size.
	for i := 0; i <= runs; i++ {
		send()
	}
	for _, r := range rcvs {
		r.ResetDeliveries()
	}
	before := net.Stats()
	allocs := testing.AllocsPerRun(runs, send)
	d := net.Stats().Delta(before)
	if want := (runs + 1) * (1 + fanout); d.DataCopies != want {
		t.Fatalf("%d data transmissions, want %d: one to the router and %d copies from it per packet",
			d.DataCopies, want, fanout)
	}
	for i, r := range rcvs {
		if len(r.Deliveries) != runs+1 || r.DupCount != 0 {
			t.Fatalf("receiver %d heard %d packets (%d duplicates), want %d", i, len(r.Deliveries), r.DupCount, runs+1)
		}
	}
	if allocs != 0 {
		t.Fatalf("steady-state replication allocates %.1f allocs per packet, want 0", allocs)
	}
}
