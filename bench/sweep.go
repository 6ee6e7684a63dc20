package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hbh/internal/experiment"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// sim-paper-sweep is the paper's section 4 evaluation as a researcher
// regenerating Figures 7 and 8 pays for it: every protocol run at every
// (topology, group size, seed) grid point, single goroutine. It is the
// table-write and convergence path (join, tree, fusion, 40 settle
// intervals, one probe); routing lands in set-up; live, clock.Real,
// UDP, obs and the wire codec are bypassed.

// sweepSeeds is the number of cost draws per (topology, size). Six
// make a round of 408 runs, about a second, so a run holds some thirty
// rounds for the lower quartile to choose from; twelve made 2 s rounds,
// thirteen to a run.
const sweepSeeds = 6

type gridPoint struct {
	topo      experiment.Topo
	receivers int
	seed      int64
	// draw says which of the sweepSeeds replications of the figures the
	// point belongs to.
	draw int
}

func sweepGrid(seed int64, quick bool) []gridPoint {
	seeds := sweepSeeds
	if quick {
		seeds = 1
	}
	var grid []gridPoint
	add := func(topo experiment.Topo, sizes []int) {
		for si, n := range sizes {
			for k := 0; k < seeds; k++ {
				grid = append(grid, gridPoint{topo, n, splitmix(seed, uint64(len(grid))+uint64(si)<<32), k})
			}
		}
	}
	add(experiment.TopoISP, experiment.ISPSizes())
	add(experiment.TopoRandom50, experiment.RandomSizes())
	return grid
}

func (p gridPoint) config(proto experiment.Protocol, sc *experiment.Scenario) experiment.RunConfig {
	return experiment.RunConfig{Topo: p.topo, Protocol: proto, Receivers: p.receivers, Seed: p.seed, Scenario: sc}
}

// prepareSweep is one set-up: the cost draw and the all-pairs Dijkstra
// of every grid point.
func prepareSweep(grid []gridPoint, tr *tracer) []*experiment.Scenario {
	scs := make([]*experiment.Scenario, len(grid))
	for i, p := range grid {
		t0 := tr.now()
		scs[i] = experiment.PrepareScenario(p.config("", nil))
		tr.add(0, "", "prepare", t0, tr.now())
	}
	return scs
}

// sweepMembers redoes the draw experiment.Run makes for its receivers
// (the costs' draws skipped, then a shuffle of the hosts that are not
// the source's), so the harness can hold HBH's measured delay against
// the shortest-path delay to the same receivers.
func sweepMembers(g *topology.Graph, seed int64, n int) (src topology.NodeID, members []topology.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g.SkipRandomizeCosts(rng, 1, 10)
	src = topology.None
	for _, h := range g.Hosts() {
		if g.AttachedRouter(h) == 0 {
			src = h
			break
		}
	}
	var pool []topology.NodeID
	for _, h := range g.Hosts() {
		if h != src {
			pool = append(pool, h)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return src, pool[:n]
}

// ctrlSink counts control-plane link transmissions of a run.
type ctrlSink struct{ n int64 }

func (c *ctrlSink) Emit(ev obs.Event) {
	if _, data := ev.Msg.(*packet.Data); ev.Kind == obs.KindForward && !data {
		c.n++
	}
}

// sweepCounts are the exact, seed-determined outputs of one pass over
// the grid. The HBH fields are what the harness answers for: the
// paper's two metrics, and receivers that missed the probe or heard it
// twice. The other protocols' misses and duplicates are recorded, not
// failed: REUNITE duplicates by design, which the paper holds against
// it, and strands a receiver now and then (5 of 1836 on seed 7, the
// open liveness item of the ROADMAP).
type sweepCounts struct {
	Runs, Receivers, TreeCostSum int // HBH
	RecvDelayMean                float64
	Missing, Duplicates          int
	// OffPath is set when some HBH run's mean receiver delay was not
	// the shortest-path delay to its receivers.
	OffPath                       int
	OtherMissing, OtherDuplicates int
}

func runSweep(cfg runCfg) (*outcome, error) {
	out := &outcome{}
	tr := newTracer(cfg.trace)
	grid := sweepGrid(cfg.seed, cfg.quick)
	// Eleven set-ups: one takes 45 ms here, and a figure that small
	// needs the median of many.
	setups := 11
	if cfg.quick || cfg.trace {
		setups = 1 // a traced run does not report setup_s
	}
	var scs []*experiment.Scenario
	ref := cfg.cal.open()
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		scs = prepareSweep(grid, tr)
		d := time.Since(t0).Seconds()
		out.setups = append(out.setups, d*refNominalUs/ref.close())
	}

	// Shortest-path delay to each HBH run's receivers, and the control
	// messages of an eighth of the HBH runs, counted outside the timed
	// rounds: an observer on the timed path would price obs, which this
	// workload bypasses.
	sptDelay := make([]float64, len(grid))
	var ctrl, ctrlRuns int64
	for i, p := range grid {
		src, members := sweepMembers(scs[i].Graph, p.seed, p.receivers)
		for _, m := range members {
			sptDelay[i] += float64(scs[i].Routing.Dist(src, m))
		}
		sptDelay[i] /= float64(len(members))
		if i%8 == 0 || cfg.quick {
			o, sink := obs.New(nil), &ctrlSink{}
			o.AddSink(sink)
			rc := p.config(experiment.HBH, scs[i])
			rc.Obs = o
			experiment.Run(rc)
			ctrl += sink.n
			ctrlRuns++
		}
	}
	ctrlPerRun := float64(ctrl) / float64(ctrlRuns)

	protos := experiment.AllPaperProtocols()
	pass := func(traced bool) (round, sweepCounts) {
		var c sweepCounts
		var delaySum float64
		stretch := make([]float64, 0, len(grid))
		// The latency a researcher sees is that of one replication of
		// the figures: the four protocols at every (topology, size) under
		// one draw of the costs, 68 runs. (Per run it is bimodal, half the
		// runs being PIM's 50 us, and the median falls in the gap; per
		// (topology, size) it is the cost of whichever point the median
		// lands on, and moved 9 % between seeds.)
		wall := make([]float64, grid[len(grid)-1].draw+1)
		from := markNow()
		root := tr.begin(traced, "round")
		for _, proto := range protos {
			for i, p := range grid {
				t0, s0 := time.Now(), tr.nowIf(traced)
				res := experiment.Run(p.config(proto, scs[i]))
				wall[p.draw] += float64(time.Since(t0)) / 1e3
				if traced {
					tr.add(root, fmt.Sprintf("%s/%d/%d", p.topo, p.receivers, i), "run."+string(proto), s0, tr.now())
				}
				if proto != experiment.HBH {
					c.OtherMissing += res.Missing
					c.OtherDuplicates += res.Duplicates
					continue
				}
				c.Missing += res.Missing
				c.Duplicates += res.Duplicates
				c.Runs++
				c.Receivers += p.receivers
				c.TreeCostSum += res.Cost
				delaySum += res.MeanDelay
				stretch = append(stretch, res.MeanDelay/sptDelay[i])
			}
		}
		tr.end(root)
		var r round
		r.cost(from, markNow(), int64(len(protos)*len(grid)))
		c.RecvDelayMean = delaySum / float64(c.Runs)
		r.framesPerDelivery = float64(c.TreeCostSum) / float64(c.Receivers)
		sort.Float64s(wall)
		r.latencyP50, r.latencyP90 = quantile(wall, 0.5), quantile(wall, 0.9)
		sort.Float64s(stretch)
		if lo, hi := stretch[0], stretch[len(stretch)-1]; lo < 1-1e-9 || hi > 1+1e-9 {
			c.OffPath++
		}
		return r, c
	}

	// The observed runs above have warmed the code paths and the heap.
	var first sweepCounts
	budget := newBudget(cfg)
	ref = cfg.cal.open()
	for budget.more() {
		traced := cfg.trace && len(out.rounds)%2 == 1
		r, c := pass(traced)
		r.refUs = ref.close()
		if len(out.rounds) == 0 {
			first = c
		} else if c != first {
			out.problemf("round %d produced %+v, round 0 %+v: rounds of identical work must repeat exactly", len(out.rounds), c, first)
		}
		out.rounds = append(out.rounds, r)
		out.traced = append(out.traced, traced)
		out.attempted += int64(c.Receivers)
		out.failed += int64(c.Missing + c.Duplicates)
		budget.done()
	}
	out.heapMB = heapLiveMB()
	if out.failed > 0 {
		out.problemf("%d HBH receivers missed the probe and %d heard it twice", first.Missing, first.Duplicates)
	}
	if first.OffPath > 0 {
		out.problemf("HBH receiver delay is not the shortest-path delay on some run")
	}
	exact := map[string]float64{
		"tree_cost_mean":      float64(first.TreeCostSum) / float64(first.Runs),
		"recv_delay_mean":     first.RecvDelayMean,
		"frames_per_delivery": out.rounds[0].framesPerDelivery,
		"ctrl_msgs_per_unit":  ctrlPerRun,
		"other_duplicates":    float64(first.OtherDuplicates),
		"other_missing":       float64(first.OtherMissing),
	}
	checkExpected(out, "sim-paper-sweep", cfg, exact)
	runtime.KeepAlive(scs)
	return out, tr.finish("sim-paper-sweep", out)
}
