package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/topology"
	"hbh/internal/unicast"
	"hbh/internal/workload"
)

// sim-manychannel-stream is the table-read and replication path with
// thousands of live soft-state timers: one netsim.Network carrying 128
// converged HBH channels, streaming. netsim forward, core MFT lookup
// and fan-out, the eventsim heap and unicast.Lazy hits do the work;
// convergence and Dijkstra do almost none, so a timer-wheel or
// forward-path change shows here and not in sim-paper-sweep.

const (
	mcRouters        = 96
	mcHostsPerRouter = 4
	mcChannels       = 128
	// mcConverge is the settling time of a set-up in refresh intervals.
	// Fusion repairs a tree one T1 expiry (3.5 intervals) at a time: at
	// 30 intervals two receivers of seed 2 were still unserved, at 60
	// every seed tried had settled.
	mcConverge = 80
	// mcIntervals is the refresh intervals of a round: with the interval
	// that drains it, half a second, fifty-odd rounds to a run.
	mcIntervals = 10
	mcPackets   = 20 // data packets per channel per interval
	// mcGraphSeed fixes the substrate, structure and link costs both:
	// -seed draws the sources, the hosts, the audiences and when each
	// receiver joins. A cost draw moves every path of every channel at
	// once (allocations per delivery 4 % and frames 4 % between seeds);
	// with the costs fixed 719 seeded receiver placements average out to
	// 1-2 %. The sweep is the workload that redraws costs.
	mcGraphSeed = 424242
)

type mcChannel struct {
	src    *core.Source
	host   topology.NodeID
	rcvs   []*core.Receiver
	sentAt []eventsim.Time // by sequence number, this round
	base   uint32
}

// mcNet is one built and converged network.
type mcNet struct {
	sim       *eventsim.Sim
	net       *netsim.Network
	chans     []*mcChannel
	receivers int
	interval  eventsim.Time

	delivered int64
	offPath   int64 // deliveries whose delay was not the shortest-path delay
}

// buildManyChannel is one set-up: the BA-96 graph with four hosts per
// router over a lazy router, Zipf audiences from workload.Generate on
// seeded hosts, every receiver joined, ten refresh
// intervals of settling, and a probe on every channel.
func buildManyChannel(seed int64, channels int) (*mcNet, error) {
	substrate := rand.New(rand.NewSource(mcGraphSeed))
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: mcRouters, M: 2}, substrate)
	rng := rand.New(rand.NewSource(splitmix(seed, 0)))
	var hosts []topology.NodeID
	for _, r := range g.Routers() {
		for k := 0; k < mcHostsPerRouter; k++ {
			h := g.AddNode(topology.Host, addr.ReceiverAddr(len(hosts)), fmt.Sprintf("h%d", len(hosts)))
			g.AddLink(h, r, 1, 1)
			hosts = append(hosts, h)
		}
	}
	g.RandomizeCosts(substrate, 1, 10)
	g.Freeze()
	routing := unicast.NewLazy(g, unicast.LazyOptions{})
	sim := eventsim.New()
	m := &mcNet{sim: sim, net: netsim.New(sim, g, routing)}
	cfg := core.DefaultConfig()
	m.interval = cfg.TreeInterval
	for _, r := range g.Routers() {
		core.AttachRouter(m.net.Node(r), cfg)
	}
	audiences := workload.Generate(workload.Config{
		Channels: channels, ZipfS: 0.5, MinReceivers: 2, MaxReceivers: 24, Seed: splitmix(seed, 1),
	})
	for ci, a := range audiences {
		perm := rand.New(rand.NewSource(splitmix(seed, uint64(2+ci)))).Perm(len(hosts))
		ch := &mcChannel{host: hosts[perm[0]]}
		ch.src = core.AttachSource(m.net.Node(ch.host), addr.GroupAddr(ci), cfg)
		for k := 0; k < a.Receivers; k++ {
			h := hosts[perm[1+k]]
			rcv := core.AttachReceiver(m.net.Node(h), ch.src.Channel(), cfg)
			dist := eventsim.Time(routing.Dist(ch.host, h))
			rcv.OnData = func(d core.Delivery) {
				m.delivered++
				if i := d.Seq - ch.base; int(i) >= len(ch.sentAt) || d.At-ch.sentAt[i] != dist {
					m.offPath++
				}
			}
			sim.At(eventsim.Time(rng.Float64())*cfg.JoinInterval, rcv.Join)
			ch.rcvs = append(ch.rcvs, rcv)
		}
		m.chans = append(m.chans, ch)
		m.receivers += a.Receivers
	}
	if err := sim.Run(eventsim.Time(mcConverge) * m.interval); err != nil {
		return nil, err
	}
	// The probe: one packet per channel, heard once by every receiver
	// after exactly the shortest-path delay.
	for k := 0; k < mcPackets; k++ {
		if err := m.tick(k == 0); err != nil {
			return nil, err
		}
	}
	if m.delivered != int64(m.receivers) || m.offPath != 0 || m.duplicates() != 0 {
		return nil, fmt.Errorf("manychannel: not converged after %d intervals: %d of %d receivers heard the probe, %d off the shortest path, %d duplicates",
			mcConverge, m.delivered, m.receivers, m.offPath, m.duplicates())
	}
	m.reset()
	return m, nil
}

// tick sends one packet on every channel now and simulates the next
// 1/mcPackets of a refresh interval.
func (m *mcNet) tick(send bool) error {
	now := m.sim.Now()
	if send {
		for _, ch := range m.chans {
			ch.sentAt = append(ch.sentAt, now)
			ch.src.SendData(nil)
		}
	}
	return m.sim.Run(now + m.interval/mcPackets)
}

func (m *mcNet) duplicates() (n int64) {
	for _, ch := range m.chans {
		for _, r := range ch.rcvs {
			n += int64(r.DupCount)
		}
	}
	return n
}

// reset opens a round: delivery logs, seen-sets and the send-time
// tables are emptied, so every round starts from the same state and
// their growth does not read as retained heap.
func (m *mcNet) reset() {
	m.delivered, m.offPath = 0, 0
	for _, ch := range m.chans {
		ch.base += uint32(len(ch.sentAt))
		ch.sentAt = ch.sentAt[:0]
		for _, r := range ch.rcvs {
			r.ResetDeliveries()
		}
	}
}

// mcCounts are a round's exact outputs.
type mcCounts struct {
	delivered, offPath, dups int64
	data, ctrl               int
}

// round simulates intervals refresh intervals of mcPackets ticks each
// and one more to drain, streaming when send is set (an idle round prices the refresh traffic
// alone), and returns what it cost (latency: the wall time of a tick)
// and its exact counts.
func (m *mcNet) round(intervals int, send bool, tr *tracer, traced bool) (round, mcCounts, error) {
	m.reset()
	pre := m.net.Stats()
	wall := make([]float64, 0, intervals*mcPackets)
	from := markNow()
	root := tr.begin(traced, "round")
	for i := 0; i <= intervals; i++ {
		s0 := tr.nowIf(traced)
		for k := 0; k < mcPackets; k++ {
			t0 := time.Now()
			// The last interval sends nothing: packets in flight drain,
			// so a round owes nothing to the next and rounds stay whole
			// refresh periods apart.
			if err := m.tick(send && i < intervals); err != nil {
				return round{}, mcCounts{}, err
			}
			if i < intervals {
				wall = append(wall, float64(time.Since(t0))/1e3)
			}
		}
		if traced {
			tr.add(root, fmt.Sprintf("interval/%d", i), "interval", s0, tr.now())
		}
	}
	tr.end(root)
	to := markNow()
	d := m.net.Stats().Delta(pre)
	c := mcCounts{delivered: m.delivered, offPath: m.offPath, dups: m.duplicates(),
		data: d.DataCopies, ctrl: d.Transmissions - d.DataCopies}
	var r round
	units := c.delivered
	if units == 0 {
		units = 1
	}
	r.cost(from, to, units)
	r.framesPerDelivery = float64(c.data) / float64(units)
	sort.Float64s(wall)
	r.latencyP50, r.latencyP90 = quantile(wall, 0.5), quantile(wall, 0.9)
	return r, c, nil
}

func runManyChannel(cfg runCfg) (*outcome, error) {
	out := &outcome{}
	tr := newTracer(cfg.trace)
	// Three set-ups, not the eleven of the sweep: one costs 0.75 s here.
	channels, intervals, setups := mcChannels, mcIntervals, 3
	if cfg.quick {
		channels, intervals, setups = 16, 3, 1
	}
	if cfg.trace {
		setups = 1 // a traced run does not report setup_s
	}
	var m *mcNet
	ref := cfg.cal.open()
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s0 := tr.now()
		var err error
		if m, err = buildManyChannel(cfg.seed, channels); err != nil {
			return nil, err
		}
		tr.add(0, "", "build+converge", s0, tr.now())
		d := time.Since(t0).Seconds()
		out.setups = append(out.setups, d*refNominalUs/ref.close())
	}
	owed := int64(m.receivers) * int64(intervals) * mcPackets
	// A warm-up round grows the pools, the heap and the lazy router's
	// rows to their working size.
	if _, _, err := m.round(intervals, true, tr, false); err != nil {
		return nil, err
	}
	var first mcCounts
	budget := newBudget(cfg)
	ref = cfg.cal.open()
	for budget.more() {
		traced := cfg.trace && len(out.rounds)%2 == 1
		r, c, err := m.round(intervals, true, tr, traced)
		if err != nil {
			return nil, err
		}
		r.refUs = ref.close()
		if len(out.rounds) == 0 {
			first = c
		} else if c != first {
			out.problemf("round %d produced %+v, round 0 %+v: rounds of identical work must repeat exactly", len(out.rounds), c, first)
		}
		out.rounds = append(out.rounds, r)
		out.traced = append(out.traced, traced)
		out.attempted += owed
		out.failed += owed - (c.delivered - c.dups) + c.dups + c.offPath
		budget.done()
	}
	m.reset()
	out.heapMB = heapLiveMB()
	runtime.KeepAlive(m)
	if out.failed > 0 {
		out.problemf("%d of %d owed deliveries missing, duplicated or off the shortest path", out.failed, out.attempted)
	}
	exact := map[string]float64{
		"frames_per_delivery": float64(first.data) / float64(first.delivered),
		"ctrl_msgs_per_unit":  float64(first.ctrl) / float64(first.delivered),
		"deliveries":          float64(first.delivered),
	}
	checkExpected(out, "sim-manychannel-stream", cfg, exact)
	return out, tr.finish("sim-manychannel-stream", out)
}
