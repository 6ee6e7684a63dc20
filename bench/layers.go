package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/experiment"
	"hbh/internal/live"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/pim"
	"hbh/internal/reunite"
	"hbh/internal/topology"
	"hbh/internal/unicast"
	"hbh/internal/workload"
)

// The per-layer suite prices each layer from outside, by timing its
// public calls. It is the same suite whatever workload the traced run
// names, so every per-layer metric is measured in every traced run; the
// README records which end-to-end metric each should move, on which
// workload.

// bencher times cheap operations, each for budget.
type bencher struct{ budget time.Duration }

// perOp repeats batches of fn until the budget has passed and returns
// the median batch's nanoseconds and allocations per call.
func (b bencher) perOp(batch int, fn func()) (ns, allocs float64) {
	fn() // first-call set-up is not the steady state
	var nss, as []float64
	for start := time.Now(); time.Since(start) < b.budget || len(nss) < 3; {
		from := markNow()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(t0)
		nss = append(nss, float64(d)/float64(batch))
		as = append(as, float64(markNow().mallocs-from.mallocs)/float64(batch))
	}
	return median(nss), median(as)
}

// perRun calls fn n times and returns the median of the durations it
// reports, in microseconds: fn times only its own measured part, so it
// can build fixtures untimed.
func perRun(n int, fn func() time.Duration) float64 {
	us := make([]float64, n)
	for i := range us {
		us[i] = float64(fn()) / 1e3
	}
	return median(us)
}

// layerSuite measures every workload-independent per-layer metric.
func layerSuite(seed int64, quick bool) (map[string]float64, error) {
	m := make(map[string]float64)
	b := bencher{budget: 50 * time.Millisecond}
	if quick {
		b.budget = 5 * time.Millisecond
	}
	layerPacket(b, m)
	layerTimers(b, m)
	layerRouting(b, m, seed)
	layerForward(b, m)
	if err := layerStream(b, m, seed, quick); err != nil {
		return nil, err
	}
	layerEngines(b, m, seed)
	layerExperiment(b, m, seed, quick)
	layerObs(b, m)
	if err := layerLive(b, m, seed, quick); err != nil {
		return nil, err
	}
	return m, nil
}

func dataPacket() *packet.Data {
	return &packet.Data{
		Header: packet.Header{
			Type:    packet.TypeData,
			Channel: addr.Channel{S: addr.ReceiverAddr(0), G: addr.GroupAddr(0)},
			Src:     addr.ReceiverAddr(0), Dst: addr.RouterAddr(1),
		},
		Seq: 7, Payload: make([]byte, livePayload),
	}
}

// The wire codec: marshalled at every hop of the live runtime, never in
// the simulator (zero-copy).
func layerPacket(b bencher, m map[string]float64) {
	msg := dataPacket()
	wire, err := packet.Marshal(msg)
	if err != nil {
		panic(err)
	}
	m["packet.marshal_ns"], _ = b.perOp(2000, func() { _, _ = packet.Marshal(msg) })
	m["packet.unmarshal_ns"], _ = b.perOp(2000, func() { _, _ = packet.Unmarshal(wire) })
	_, m["packet.roundtrip_allocs"] = b.perOp(2000, func() {
		w, _ := packet.Marshal(msg)
		_, _ = packet.Unmarshal(w)
	})
}

// The event loop and the timers built on it.
func layerTimers(b bencher, m map[string]float64) {
	nop := func() {}
	sim := eventsim.New()
	rng := rand.New(rand.NewSource(1))
	// 4096 self-rescheduling events: the heap stays at the size of a
	// many-channel network's timer population, and every fire is one
	// schedule and one pop.
	var again func()
	again = func() { sim.After(eventsim.Time(1+rng.Float64()*100), again) }
	for i := 0; i < 4096; i++ {
		sim.After(eventsim.Time(rng.Float64()*100), again)
	}
	var perEvent []float64
	for start := time.Now(); time.Since(start) < b.budget; {
		before, t0 := sim.Fired(), time.Now()
		_ = sim.Run(sim.Now() + 10)
		perEvent = append(perEvent, float64(time.Since(t0))/float64(sim.Fired()-before))
	}
	m["eventsim.schedule_fire_ns"] = median(perEvent)
	// A cancelled event stays queued until its time comes, so each of
	// these schedules and cancels a thousand timers and then lets the
	// simulator pop what they left behind: the whole cost of a timer
	// that never fires.
	sim = eventsim.New()
	clk := clock.Sim(sim)
	thousand := func(op func()) float64 {
		ns, _ := b.perOp(1, func() {
			for i := 0; i < 1000; i++ {
				op()
			}
			_ = sim.Run(sim.Now() + 100)
		})
		return ns / 1000
	}
	m["eventsim.cancel_ns"] = thousand(func() { sim.After(50, nop).Cancel() })
	m["clock.sim_after_cancel_ns"] = thousand(func() { clk.After(50, nop).Cancel() })
	st := clock.NewSoftTimer(clk, 350, 350, nop, nop)
	m["clock.softtimer_refresh_ns"] = thousand(func() { st.Refresh() })

	real := clock.NewReal(liveUnit, nil)
	m["clock.real_after_cancel_ns"], _ = b.perOp(1000, func() { real.After(1000, nop).Cancel() })
	// Lateness of a one-unit timer: what every live hop waits on.
	fired := make(chan time.Duration)
	slop := make([]float64, 50)
	for i := range slop {
		t0 := time.Now()
		real.After(1, func() { fired <- time.Since(t0) })
		slop[i] = float64(<-fired-liveUnit) / 1e3
	}
	m["clock.real_fire_slop_p50_us"] = median(slop)
}

// Cost draw, all-pairs Dijkstra and the lazy router: set-up of both sim
// workloads; lazy hits are on the stream's forward path.
func layerRouting(b bencher, m map[string]float64, seed int64) {
	g := experiment.BaseGraph(experiment.TopoRandom50).Clone()
	rng := rand.New(rand.NewSource(splitmix(seed, 10)))
	ns, _ := b.perOp(20, func() { g.RandomizeCosts(rng, 1, 10) })
	m["topology.randomize_costs_us"] = ns / 1e3
	ns, _ = b.perOp(3, func() { unicast.Compute(g) })
	m["unicast.compute_ms"] = ns / 1e6
	g.Freeze()
	lazy := unicast.NewLazy(g, unicast.LazyOptions{})
	n, i := g.NumNodes(), 0
	query := func() {
		i++
		lazy.NextHop(topology.NodeID(i%n), topology.NodeID((i*7919)%n))
	}
	m["unicast.lazy_hit_ns"], _ = b.perOp(5000, query)
	ns, _ = b.perOp(n, func() {
		if i%n == 0 {
			lazy.Recompute() // drops every cached row: the next n queries all miss
		}
		query()
	})
	m["unicast.lazy_miss_us"] = ns / 1e3
}

// One data packet over one link with no protocol attached, bare and
// with the observer's parts switched on.
func layerForward(b bencher, m map[string]float64) {
	hop := func(attach func(o *obs.Observer)) (ns, allocs float64) {
		g := topology.Line(2, false)
		sim := eventsim.New()
		net := netsim.New(sim, g, unicast.Compute(g))
		net.Node(1).SetDeliver(func(netsim.ProtoNode, packet.Message) {})
		if attach != nil {
			o := obs.New(sim.Now)
			attach(o)
			net.SetObserver(o)
		}
		msg := dataPacket()
		msg.Dst = g.Node(1).Addr
		return b.perOp(1000, func() {
			net.Node(0).SendUnicast(msg)
			_ = sim.RunAll()
		})
	}
	m["netsim.forward_hop_ns"], m["netsim.forward_hop_allocs"] = hop(nil)
	m["netsim.forward_hop_counters_ns"], _ = hop(func(o *obs.Observer) { o.EnableCounters() })
	m["netsim.forward_hop_hist_ns"], _ = hop(func(o *obs.Observer) { o.EnableCounters(); o.EnableLatency() })
	m["obs.enabled_tax_ratio"] = m["netsim.forward_hop_counters_ns"] / m["netsim.forward_hop_ns"]
}

// layerStream prices one data hop inside a converged many-channel
// network: a streaming round less an idle round of the same length,
// which carries the refresh traffic alone, over the data frames sent.
func layerStream(b bencher, m map[string]float64, seed int64, quick bool) error {
	channels, intervals := 32, 10
	if quick {
		channels, intervals = 8, 2
	}
	net, err := buildManyChannel(seed, channels)
	if err != nil {
		return err
	}
	tr := newTracer(false)
	var stream, idle []float64
	var frames int
	for i := 0; i < 3; i++ {
		r, c, err := net.round(intervals, true, tr, false)
		if err != nil {
			return err
		}
		stream, frames = append(stream, r.cpuUsPerUnit*float64(c.delivered)), c.data
		if r, _, err = net.round(intervals, false, tr, false); err != nil {
			return err
		}
		idle = append(idle, r.cpuUsPerUnit) // an idle round has one unit
	}
	m["netsim.data_hop_ns"] = (median(stream) - median(idle)) * 1e3 / float64(frames)
	return nil
}

// engineNet is a seeded ISP network with eight receivers drawn as the
// experiments draw them.
type engineNet struct {
	sim     *eventsim.Sim
	net     *netsim.Network
	src     topology.NodeID
	members []topology.NodeID
}

func newEngineNet(seed int64) *engineNet {
	sc := experiment.PrepareScenario(experiment.RunConfig{Topo: experiment.TopoISP, Seed: seed})
	sim := eventsim.New()
	e := &engineNet{sim: sim, net: netsim.New(sim, sc.Graph, sc.Routing)}
	e.src, e.members = sweepMembers(sc.Graph, seed, 8)
	return e
}

// engineSettle is how long the engine fixtures converge for, in
// refresh intervals.
const engineSettle = 15

// The engines' table work: joining and converging, one steady refresh
// interval, replication at fan-out 8, the central PIM build, the probe.
func layerEngines(b bencher, m map[string]float64, seed int64) {
	seed = splitmix(seed, 11)
	cfg := core.DefaultConfig()

	var e *engineNet
	var src *core.Source
	var members []mtree.Member
	m["core.join_converge_us"] = perRun(7, func() time.Duration {
		e, members = newEngineNet(seed), nil
		t0 := time.Now()
		for _, r := range e.net.Topology().Routers() {
			core.AttachRouter(e.net.Node(r), cfg)
		}
		src = core.AttachSource(e.net.Node(e.src), addr.GroupAddr(0), cfg)
		for _, h := range e.members {
			r := core.AttachReceiver(e.net.Node(h), src.Channel(), cfg)
			r.Join()
			members = append(members, r)
		}
		_ = e.sim.Run(engineSettle * cfg.TreeInterval)
		return time.Since(t0)
	})
	ns, _ := b.perOp(5, func() { _ = e.sim.Run(e.sim.Now() + cfg.TreeInterval) })
	m["core.refresh_interval_us"] = ns / 1e3
	m["mtree.probe_us"] = perRun(7, func() time.Duration {
		t0 := time.Now()
		mtree.Probe(e.net, func() uint32 { return src.SendData(nil) }, members)
		return time.Since(t0)
	})

	rcfg := reunite.DefaultConfig()
	m["reunite.join_converge_us"] = perRun(7, func() time.Duration {
		e = newEngineNet(seed)
		t0 := time.Now()
		for _, r := range e.net.Topology().Routers() {
			reunite.AttachRouter(e.net.Node(r), rcfg)
		}
		rsrc := reunite.AttachSource(e.net.Node(e.src), addr.GroupAddr(0), rcfg)
		for _, h := range e.members {
			reunite.AttachReceiver(e.net.Node(h), rsrc.Channel(), rcfg).Join()
		}
		_ = e.sim.Run(engineSettle * rcfg.TreeInterval)
		return time.Since(t0)
	})
	ns, _ = b.perOp(5, func() { _ = e.sim.Run(e.sim.Now() + rcfg.TreeInterval) })
	m["reunite.refresh_interval_us"] = ns / 1e3

	m["pim.build_us"] = perRun(7, func() time.Duration {
		e = newEngineNet(seed)
		t0 := time.Now()
		pim.Build(e.net, pim.SS, e.src, addr.GroupAddr(0), e.members, topology.None)
		return time.Since(t0)
	})

	// One router, a source host and eight receiver hosts: every packet
	// is replicated eight ways at the router.
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
	core.AttachRouter(net.Node(r0), cfg)
	star := core.AttachSource(net.Node(hosts[0]), addr.GroupAddr(0), cfg)
	var rcvs []*core.Receiver
	for _, h := range hosts[1:] {
		r := core.AttachReceiver(net.Node(h), star.Channel(), cfg)
		r.Join()
		rcvs = append(rcvs, r)
	}
	_ = sim.Run(engineSettle * cfg.TreeInterval)
	ns, _ = b.perOp(200, func() {
		star.SendData(nil)
		_ = sim.Run(sim.Now() + 3)
		if len(rcvs[0].Deliveries) >= 1000 {
			for _, r := range rcvs {
				r.ResetDeliveries()
			}
		}
	})
	m["core.replicate_ns_per_copy"] = ns / fanout
}

// The experiment layer: what one grid point of the paper's sweep costs
// per protocol, the many-channel executor, the workload generator, and
// the paper's two metrics with the control messages behind them.
func layerExperiment(b bencher, m map[string]float64, seed int64, quick bool) {
	seed = splitmix(seed, 12)
	rc := experiment.RunConfig{Topo: experiment.TopoRandom50, Seed: seed}
	ns, _ := b.perOp(3, func() { experiment.PrepareScenario(rc) })
	m["experiment.scenario_prepare_us"] = ns / 1e3
	rc = experiment.RunConfig{Topo: experiment.TopoISP, Seed: seed, Receivers: 8}
	rc.Scenario = experiment.PrepareScenario(rc)
	for name, proto := range map[string]experiment.Protocol{
		"hbh": experiment.HBH, "reunite": experiment.REUNITE, "pimsm": experiment.PIMSM, "pimss": experiment.PIMSS,
	} {
		rc.Protocol = proto
		ns, _ = b.perOp(3, func() { experiment.Run(rc) })
		m["experiment.run_us."+name] = ns / 1e3
	}

	channels := 48
	if quick {
		channels = 4
	}
	t0 := time.Now()
	experiment.ManyChannelExperiment(experiment.ManyChannelConfig{
		Tiers: []int{channels}, Protocols: []experiment.Protocol{experiment.HBH}, Workers: 1, Seed: seed,
	})
	m["experiment.manychannel_ms_per_channel"] = float64(time.Since(t0)) / 1e6 / float64(channels)
	wcfg := workload.Config{Channels: 500, ZipfS: 1, MinReceivers: 2, MaxReceivers: 24,
		ChurnRate: 1, FlashCrowd: 3, Horizon: 800, Interval: 100, Seed: seed}
	ns, _ = b.perOp(1, func() { workload.Generate(wcfg) })
	m["workload.generate_us_per_channel"] = ns / 1e3 / float64(wcfg.Channels)

	var cost, delay, ctrl float64
	grid := sweepGrid(seed, true)
	for _, p := range grid {
		o, sink := obs.New(nil), &ctrlSink{}
		o.AddSink(sink)
		prc := p.config(experiment.HBH, nil)
		prc.Obs = o
		res := experiment.Run(prc)
		cost += float64(res.Cost)
		delay += res.MeanDelay
		ctrl += float64(sink.n)
	}
	m["experiment.tree_cost_mean"] = cost / float64(len(grid))
	m["experiment.recv_delay_mean"] = delay / float64(len(grid))
	m["core.ctrl_msgs_per_run"] = ctrl / float64(len(grid))
}

// The observer's parts, one event at a time.
func layerObs(b bencher, m map[string]float64) {
	ev := obs.Event{
		Kind: obs.KindForward, Node: addr.RouterAddr(1), NodeName: "R1",
		Peer: addr.RouterAddr(2), PeerName: "R2", Msg: dataPacket(), Seq: 7,
		Channel: addr.Channel{S: addr.ReceiverAddr(0), G: addr.GroupAddr(0)},
	}
	c := obs.NewCounters()
	m["obs.counters_apply_ns"], _ = b.perOp(1000, func() { c.Apply(ev) })
	h := obs.NewHistogram("bench")
	v := 0.001
	m["obs.hist_observe_ns"], _ = b.perOp(5000, func() { v *= 1.0001; h.Observe(v) })
	rec := obs.NewRecorder(256)
	m["obs.recorder_ns"], _ = b.perOp(1000, func() { rec.Record(ev) })
}

// The live runtime: mailbox, one hop over each transport, the socket
// pair alone, stop-the-world, the idle control plane, and two short
// streams for the delay figures that are not seed-stable enough to be
// end-to-end metrics.
func layerLive(b bencher, m map[string]float64, seed int64, quick bool) error {
	for name, udp := range map[string]bool{"live.hop_chan_us": false, "live.hop_udp_us": true} {
		us, err := liveHop(udp)
		if err != nil {
			return err
		}
		m[name] = us
	}
	us, err := udpPair()
	if err != nil {
		return err
	}
	m["live.udp_send_recv_us"] = us

	// Two seconds of live-chan-stream, four of the churn stream.
	idle, warm, csRounds, ucRounds := time.Second, 500*time.Millisecond, 4, 4
	cs, uc := chanStream, udpChurn
	if quick {
		idle, warm, csRounds = 100*time.Millisecond, 60*time.Millisecond, 1
		cs.round, uc.round = 250*time.Millisecond, 250*time.Millisecond
		uc.awayMin, uc.awayMax, uc.churnPerS = 150*time.Millisecond, 250*time.Millisecond, 20
	}
	t, err := buildLive(cs, seed)
	if err != nil {
		return err
	}
	nop := func() {}
	ns, _ := b.perOp(200, func() { t.rt.Do(t.chans[0].host, nop) })
	m["live.do_roundtrip_us"] = ns / 1e3
	ns, _ = b.perOp(50, func() { t.rt.Quiesce(nop) })
	m["live.quiesce_us"] = ns / 1e3
	c0 := cpuNow()
	time.Sleep(idle)
	m["live.ctrl_cpu_ms_per_s"] = float64(cpuNow()-c0) / 1e6 / idle.Seconds()
	t.warm(warm)
	rep := t.stream(seed, csRounds, nil).report()
	t.stop()
	m["live.delivery_p50_ms"] = median(rep.delayMs)
	m["live.delivery_overhead_p50_ms"] = quantile(rep.overAllMs, 0.5)
	m["live.delivery_overhead_p90_ms"] = quantile(rep.overAllMs, 0.9)
	m["live.delivery_overhead_p99_ms"] = quantile(rep.overAllMs, 0.99)
	m["live.hop_overhead_p50_us"] = median(column(rep.rounds, func(r round) float64 { return r.latencyP50 }))
	m["live.delay_stretch_p50"] = median(rep.stretchP50)
	m["live.ctrl_msgs_per_delivery"] = median(rep.ctrlPerDelivery)

	if t, err = buildLive(uc, seed); err != nil {
		return err
	}
	t.warm(warm)
	rep = t.stream(seed, ucRounds, nil).report()
	var export []float64
	for i := 0; i < 5; i++ {
		t.rt.ObsLocked(func() {
			t0 := time.Now()
			_ = t.counters.Export(io.Discard)
			export = append(export, float64(time.Since(t0))/1e6)
		})
	}
	t.stop()
	if len(rep.joinMs) == 0 {
		return fmt.Errorf("layers: the churn stream saw no rejoin complete")
	}
	m["obs.export_ms"] = median(export)
	m["live.join_first_packet_p50_ms"] = quantile(rep.joinMs, 0.5)
	m["bench.sched_late_p99_ms"] = quantile(rep.lateMs, 0.99)
	return nil
}

// liveHop is one hop of the live runtime over either transport: from
// the send on node 0 of a two-node line to the arrival on node 1, less
// the link's cost in wall time. Median of 40, in microseconds.
func liveHop(udp bool) (float64, error) {
	g := topology.Line(2, false)
	g.Freeze()
	rt := live.New(live.Config{Graph: g, Routing: unicast.Compute(g), Unit: liveUnit})
	arrived := make(chan time.Time, 1)
	rt.Node(1).SetDeliver(func(netsim.ProtoNode, packet.Message) { arrived <- time.Now() })
	if udp {
		tr, err := live.NewUDPTransport(rt.Hosted(), map[topology.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}, rt.HandleFrame)
		if err != nil {
			return 0, err
		}
		rt.SetTransport(tr)
	}
	rt.Start()
	defer rt.Stop()
	msg := dataPacket()
	msg.Dst = g.Node(1).Addr
	wire := time.Duration(g.Cost(0, 1)) * liveUnit
	us := make([]float64, 40)
	for i := range us {
		t0 := time.Now()
		rt.Do(0, func() { rt.Node(0).SendUnicast(msg) })
		us[i] = float64((<-arrived).Sub(t0)-wire) / 1e3
	}
	return median(us), nil
}

// udpPair is the loopback socket pair alone: Send on one node's socket
// to the read loop's callback on the other's. Median of 300, in
// microseconds.
func udpPair() (float64, error) {
	got := make(chan struct{}, 1)
	tr, err := live.NewUDPTransport([]topology.NodeID{0, 1},
		map[topology.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"},
		func(topology.NodeID, []byte) { got <- struct{}{} })
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	frame := make([]byte, 37+24+livePayload)
	us := make([]float64, 300)
	for i := range us {
		t0 := time.Now()
		if err := tr.Send(0, 1, frame); err != nil {
			return 0, err
		}
		<-got
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), nil
}
