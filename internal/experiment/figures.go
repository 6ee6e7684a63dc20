package experiment

import (
	"sync"

	"hbh/internal/metrics"
)

// DefaultWorkers is the number of goroutines every grid experiment runs
// its jobs on. cmd/hbhsim sets it from its -workers flag; the default
// keeps everything serial. Each grid folds its runs in one fixed order,
// so every table is identical at any worker count.
var DefaultWorkers = 1

// grid runs job at every (x index, run) point of an nx × runs table on
// up to workers goroutines, then calls the folds the jobs return in
// (x, run) order, so a table aggregates its runs in the same sequence
// whatever the scheduling. worker is the index of the goroutine running
// the job, below poolSize(workers, nx*runs), for state a job shares
// only with the jobs on its own goroutine. A job must not write shared
// state; its fold may.
func grid(workers, nx, runs int, job func(xi, run, worker int) (fold func())) {
	folds := make([]func(), nx*runs)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < poolSize(workers, len(folds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				folds[j] = job(j/runs, j%runs, w)
			}
		}()
	}
	for j := range folds {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, fold := range folds {
		fold()
	}
}

// poolSize is how many goroutines a grid of n jobs runs on: workers, at
// least one and no more than one per job.
func poolSize(workers, n int) int { return max(1, min(workers, n)) }

// Figure is a fully aggregated sweep: one series per protocol over the
// group sizes of one paper figure.
type Figure struct {
	// ID is the paper artefact, e.g. "7a".
	ID string
	// Title describes the figure.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds one curve per protocol, in legend order.
	Series []*metrics.Series
	// Runs is the number of runs aggregated per point.
	Runs int
	// BadRuns counts runs with missing deliveries (must stay 0; kept
	// as an honesty check in the output).
	BadRuns int
}

// sweep runs protos at every (x index, run) point over xs, each point's
// RunConfig set by at from its seed, and folds both of the paper's
// metrics into two figures: each probe yields cost and delay together,
// so a cost figure and a delay figure share one set of simulations, as
// they would in NS. Every protocol at a point shares the seed and so
// the scenario, exactly like simulating them on the same draws: the
// graph clone and the all-pairs Dijkstra are done once per point, not
// once per protocol.
func sweep(xs []int, protos []Protocol, runs int, seed int64,
	at func(xi int, rc *RunConfig)) (cost, delay *Figure) {
	cost = &Figure{XLabel: "Number of receivers", YLabel: "tree cost (packet copies)", Runs: runs}
	delay = &Figure{XLabel: "Number of receivers", YLabel: "receiver average delay (time units)", Runs: runs}
	for _, p := range protos {
		cost.Series = append(cost.Series, metrics.NewSeries(string(p), xs))
		delay.Series = append(delay.Series, metrics.NewSeries(string(p), xs))
	}
	grid(DefaultWorkers, len(xs), runs, func(xi, run, _ int) func() {
		rc := RunConfig{Seed: seed + int64(xi)*1_000_003 + int64(run)*7919}
		at(xi, &rc)
		rc.Scenario = PrepareScenario(rc)
		res := make([]RunResult, len(protos))
		for pi, p := range protos {
			rc.Protocol = p
			res[pi] = Run(rc)
		}
		return func() {
			for pi, r := range res {
				if r.Missing > 0 {
					cost.BadRuns++
					delay.BadRuns++
				}
				cost.Series[pi].At(xs[xi]).Add(float64(r.Cost))
				delay.Series[pi].At(xs[xi]).Add(r.MeanDelay)
			}
		}
	})
	return cost, delay
}

// PaperFigures runs the shared sweep for one topology and returns the
// paper's cost figure (7a/7b) and delay figure (8a/8b).
func PaperFigures(topo Topo, runs int, seed int64) (cost, delay *Figure) {
	sizes := ISPSizes()
	costID, delayID := "7a", "8a"
	costTitle, delayTitle := "Tree cost, ISP topology", "Receiver average delay, ISP topology"
	if topo == TopoRandom50 {
		sizes = RandomSizes()
		costID, delayID = "7b", "8b"
		costTitle = "Tree cost, 50-node random topology"
		delayTitle = "Receiver average delay, 50-node random topology"
	}
	cost, delay = sweep(sizes, AllPaperProtocols(), runs, seed, receiversOn(topo, sizes))
	cost.ID, cost.Title = costID, costTitle
	delay.ID, delay.Title = delayID, delayTitle
	return cost, delay
}

// ISPSizes are the group sizes of Figures 7(a)/8(a): 2..16 step 2.
func ISPSizes() []int { return []int{2, 4, 6, 8, 10, 12, 14, 16} }

// RandomSizes are the group sizes of Figures 7(b)/8(b): 5..45 step 5.
func RandomSizes() []int { return []int{5, 10, 15, 20, 25, 30, 35, 40, 45} }

// Figure7a reproduces Figure 7(a): average tree cost on the ISP
// topology.
func Figure7a(runs int, seed int64) *Figure {
	cost, _ := PaperFigures(TopoISP, runs, seed)
	return cost
}

// Figure7b reproduces Figure 7(b): average tree cost on the 50-node
// random topology.
func Figure7b(runs int, seed int64) *Figure {
	cost, _ := PaperFigures(TopoRandom50, runs, seed)
	return cost
}

// Figure8a reproduces Figure 8(a): receiver average delay on the ISP
// topology.
func Figure8a(runs int, seed int64) *Figure {
	_, delay := PaperFigures(TopoISP, runs, seed)
	return delay
}

// Figure8b reproduces Figure 8(b): receiver average delay on the
// 50-node random topology.
func Figure8b(runs int, seed int64) *Figure {
	_, delay := PaperFigures(TopoRandom50, runs, seed)
	return delay
}

// AblationFusion reproduces experiment A1: HBH with and without the
// fusion mechanism, isolating the duplicate-copy repair (tree cost,
// ISP topology).
func AblationFusion(runs int, seed int64) *Figure {
	f, _ := sweep(ISPSizes(), []Protocol{HBH, HBHNoFusion}, runs, seed, receiversOn(TopoISP, ISPSizes()))
	f.ID, f.Title = "A1", "Ablation: fusion repair (tree cost, ISP topology)"
	return f
}

// receiversOn sets a sweep point to topo with sizes[xi] receivers.
func receiversOn(topo Topo, sizes []int) func(xi int, rc *RunConfig) {
	return func(xi int, rc *RunConfig) { rc.Topo, rc.Receivers = topo, sizes[xi] }
}

// UnicastClouds reproduces experiment A2: tree cost of HBH and REUNITE
// as the fraction of multicast-capable routers varies (ISP topology,
// 8 receivers). The x axis is the capability percentage.
func UnicastClouds(runs int, seed int64) *Figure {
	fractions := []int{0, 25, 50, 75, 100}
	fig, _ := sweep(fractions, []Protocol{HBH, REUNITE}, runs, seed, func(xi int, rc *RunConfig) {
		rc.Topo, rc.Receivers = TopoISP, 8
		rc.MulticastFraction = float64(fractions[xi]) / 100
		if fractions[xi] == 0 {
			// fraction 0 must mean "none capable", but the zero
			// value means "all": use an epsilon below one router.
			rc.MulticastFraction = 0.001
		}
	})
	fig.ID = "A2"
	fig.Title = "Unicast clouds: tree cost vs multicast deployment (ISP, 8 receivers)"
	fig.XLabel = "Multicast-capable routers (%)"
	return fig
}

// AsymmetrySweep reproduces experiment A3: the HBH-vs-REUNITE delay
// gap as routing asymmetry grows. Costs are drawn symmetric in [1,10]
// and skewed per direction by up to the x-axis spread.
func AsymmetrySweep(runs int, seed int64) *Figure {
	spreads := []int{0, 2, 4, 6, 8}
	_, fig := sweep(spreads, []Protocol{PIMSS, REUNITE, HBH}, runs, seed, func(xi int, rc *RunConfig) {
		rc.Topo, rc.Receivers = TopoISP, 8
		rc.UseAsymSpread, rc.AsymSpread = true, spreads[xi]
	})
	fig.ID = "A3"
	fig.Title = "Asymmetry sweep: receiver delay vs cost skew (ISP, 8 receivers)"
	fig.XLabel = "Per-direction cost skew"
	return fig
}
