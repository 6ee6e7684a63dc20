// Command hbhsim regenerates the evaluation of the HBH paper (SIGCOMM
// 2001): the tree-cost and receiver-delay figures over the ISP and
// 50-node random topologies, the departure-stability comparison, and
// the ablation/extension studies.
//
// Usage:
//
//	hbhsim -figure 7a              # one figure, text table
//	hbhsim -figure all -runs 500   # every figure but the two scale sweeps
//	hbhsim -figure 8b -csv         # CSV series for plotting
//
// Figures: 7a 7b 8a 8b (paper), paper (7a+8a+7b+8b sharing runs),
// stability (Fig. 4 departure study), ablation-fusion (A1),
// unicast-clouds (A2), asymmetry-sweep (A3), forwarding-state (A4),
// control-overhead (A5), qos (A7), cross-topo (A8), delay-tail (A9),
// convergence (A11: join and link-cut repair), robustness (A12 churn x
// control-loss envelope), scale (A13 routing substrate ladder),
// manychannel (A14 heavy-traffic sweep: aggregate state and control
// cost vs concurrent channel count), all (every figure but scale and
// manychannel). Every sweep runs on -workers goroutines and prints the
// same table at any worker count.
//
// Adversarial fuzzing mode (replaces the figure sweep):
//
//	hbhsim -fuzz -fuzz-iters 200 -fuzz-out findings/   # coverage-guided campaign
//	hbhsim -fuzz-replay findings/ab12cd34.genome       # replay one repro file
//
// Single-run observability mode (replaces the figure sweep when
// -trace or -obs-metrics is given):
//
//	hbhsim -trace                                  # one ISP run, JSONL event stream on stdout
//	hbhsim -trace -trace-format text               # human-readable trace instead
//	hbhsim -trace -trace-format causal             # causal episode timelines (join/expiry/fault cascades)
//	hbhsim -trace -trace-filter '<10.0.0.18,224.0.0.0>/h4'  # one channel at one node
//	hbhsim -obs-metrics metrics.prom -receivers 12 # Prometheus-style counter export
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hbh/internal/advfuzz"
	"hbh/internal/experiment"
	"hbh/internal/obs"
)

func main() {
	var names, costly []string
	for _, f := range figures {
		names = append(names, f.name)
		if f.costly {
			costly = append(costly, f.name)
		}
	}
	var (
		figure  = flag.String("figure", "paper", fmt.Sprintf("which figure to regenerate: %s, or all (every figure but %s)", strings.Join(names, ", "), strings.Join(costly, " and ")))
		runs    = flag.Int("runs", 500, "simulation runs per data point (the paper uses 500)")
		seed    = flag.Int64("seed", 1, "base RNG seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of text tables")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers for the figure sweeps (results are deterministic regardless; defaults to the CPU count)")
		check   = flag.Bool("check", false, "run every simulation under the runtime invariant checker; any violation aborts with a node/channel-attributed report (equivalent to HBH_INVARIANT_CHECK=1)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")

		trace       = flag.Bool("trace", false, "single-run observability mode: run one simulation and stream its protocol events instead of sweeping a figure")
		traceOut    = flag.String("trace-out", "", "write the event stream to this file (default stdout)")
		traceFormat = flag.String("trace-format", "jsonl", "event stream format: jsonl, text, or causal (reconstructed per-episode timelines)")
		traceFilter = flag.String("trace-filter", "", "restrict the stream to matching events: comma/space-separated <S,G> channels and node names; e.g. '<10.0.0.18,224.0.0.0>/h4' (counters and the flight recorder always see everything)")
		obsMetrics  = flag.String("obs-metrics", "", "write Prometheus-style counters and virtual-time latency histograms to this file after a single run; implies single-run mode")
		protoF      = flag.String("proto", "HBH", "single-run protocol: HBH, HBH-nofusion, REUNITE, PIM-SM, PIM-SS")
		topoF       = flag.String("topo", "isp", "single-run topology: isp, random50, nsfnet, abilene")
		receivers   = flag.Int("receivers", 8, "single-run receiver count")

		fuzz       = flag.Bool("fuzz", false, "coverage-guided adversarial scenario fuzzing mode: mutate scenario genomes under the invariant oracle instead of sweeping a figure")
		fuzzIters  = flag.Int("fuzz-iters", 50, "mutation iterations for -fuzz (the seed corpus always runs first)")
		fuzzSeeds  = flag.String("fuzz-seeds", "", "directory of *.genome seed files for -fuzz (default: the built-in corpus)")
		fuzzOut    = flag.String("fuzz-out", "", "directory where -fuzz writes minimized violation repros (<id>.genome)")
		fuzzReplay = flag.String("fuzz-replay", "", "replay one scenario genome file under the invariant oracle and exit (non-zero on violation)")

		scaleSizes   = flag.String("scale-sizes", "", "comma-separated router counts for -figure scale (default 50,500,5000,50000)")
		scaleSources = flag.Int("scale-sources", 1000, "sampled sources routed per size for -figure scale")

		mcChannels = flag.String("mc-channels", "", "comma-separated channel-count tiers for -figure manychannel (default 100,1000,10000)")
		mcRouters  = flag.Int("mc-routers", 0, "substrate router count for -figure manychannel (default 96)")
	)
	flag.Parse()
	experiment.DefaultWorkers = *workers
	if *check {
		experiment.CheckInvariants = true
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbhsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hbhsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hbhsim: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hbhsim: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *fuzzReplay != "" {
		runFuzzReplay(*fuzzReplay)
		return
	}
	if *fuzz {
		runFuzz(*fuzzIters, *seed, *fuzzSeeds, *fuzzOut)
		return
	}

	if *trace || *obsMetrics != "" {
		runTraced(tracedOptions{
			out: *traceOut, format: *traceFormat, filter: *traceFilter,
			metrics: *obsMetrics, proto: *protoF, topo: *topoF,
			receivers: *receivers, seed: *seed, check: *check,
		})
		return
	}

	start := time.Now()
	o := options{
		runs: *runs, seed: *seed, csv: *csv,
		scaleSizes: *scaleSizes, scaleSources: *scaleSources,
		mcChannels: *mcChannels, mcRouters: *mcRouters,
	}
	name := strings.ToLower(*figure)
	found := false
	for _, f := range figures {
		if f.name == name || name == "all" && f.partOf == "" && !f.costly {
			fmt.Print(f.run(o))
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "hbhsim: unknown figure %q\n", *figure)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "hbhsim: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// options are the flags the figures read.
type options struct {
	runs         int
	seed         int64
	csv          bool
	scaleSizes   string
	scaleSources int
	mcChannels   string
	mcRouters    int
}

// print renders figures as text tables, or as CSV under -csv.
func (o options) print(figs ...*experiment.Figure) string {
	var b strings.Builder
	for _, f := range figs {
		if o.csv {
			fmt.Fprintf(&b, "# Figure %s — %s\n%s\n", f.ID, f.Title, f.FormatCSV())
		} else {
			b.WriteString(f.FormatTable() + "\n")
		}
	}
	return b.String()
}

// figure is one -figure name and the output it prints.
type figure struct {
	name string
	// partOf names the figure that prints this one among others, which
	// is where -figure all and results/ print it.
	partOf string
	// costly marks a figure -figure all leaves out; its entry says why.
	costly bool
	run    func(o options) string
}

// figures lists every figure in the order -figure all prints them.
// It is the one list -figure, its help text, -figure all and the
// results/ regeneration test read, so a new figure cannot be left out
// of any of them.
var figures = []figure{
	{name: "7a", partOf: "paper", run: func(o options) string { return o.print(experiment.Figure7a(o.runs, o.seed)) }},
	{name: "7b", partOf: "paper", run: func(o options) string { return o.print(experiment.Figure7b(o.runs, o.seed)) }},
	{name: "8a", partOf: "paper", run: func(o options) string { return o.print(experiment.Figure8a(o.runs, o.seed)) }},
	{name: "8b", partOf: "paper", run: func(o options) string { return o.print(experiment.Figure8b(o.runs, o.seed)) }},
	{name: "paper", run: func(o options) string {
		return o.print(experiment.PaperFigures(experiment.TopoISP, o.runs, o.seed)) +
			o.print(experiment.PaperFigures(experiment.TopoRandom50, o.runs, o.seed))
	}},
	{name: "stability", run: func(o options) string {
		var b strings.Builder
		for _, topo := range []experiment.Topo{experiment.TopoISP, experiment.TopoRandom50} {
			res := experiment.StabilityExperiment(experiment.StabilityConfig{
				Topo: topo, Receivers: 8, Runs: o.runs, Seed: o.seed,
			})
			b.WriteString(res.FormatTable() + "\n")
		}
		return b.String() + "\n"
	}},
	{name: "ablation-fusion", run: func(o options) string { return o.print(experiment.AblationFusion(o.runs, o.seed)) }},
	{name: "unicast-clouds", run: func(o options) string { return o.print(experiment.UnicastClouds(o.runs, o.seed)) }},
	{name: "asymmetry-sweep", run: func(o options) string { return o.print(experiment.AsymmetrySweep(o.runs, o.seed)) }},
	{name: "forwarding-state", run: func(o options) string { return o.print(experiment.ForwardingState(o.runs, o.seed)) }},
	{name: "control-overhead", run: func(o options) string { return o.print(experiment.ControlOverhead(o.runs, o.seed)) }},
	{name: "qos", run: func(o options) string { return o.print(experiment.QoSRouting(o.runs, o.seed)) }},
	{name: "cross-topo", run: func(o options) string { return o.print(experiment.CrossTopology(o.runs, o.seed)) }},
	{name: "delay-tail", run: func(o options) string { return experiment.DelayTail(o.runs, o.seed).FormatTable() + "\n" }},
	{name: "convergence", run: func(o options) string {
		return experiment.ConvergenceExperiment(experiment.ConvergenceConfig{
			Receivers: 8, Runs: o.runs, Seed: o.seed,
		}).FormatTable() + "\n"
	}},
	{name: "robustness", run: func(o options) string {
		return experiment.RobustnessExperiment(experiment.RobustnessConfig{
			Receivers: 8, Runs: o.runs, Seed: o.seed,
		}).FormatTable() + "\n"
	}},
	// Its gen/route/heap columns are wall clock and memory, and its
	// 50k-router row takes a GiB of heap: not a table to rerun in bulk.
	{name: "scale", costly: true, run: func(o options) string {
		return scale(o.scaleSizes, o.scaleSources, o.seed) + "\n"
	}},
	// Its default ladder ends at 10000 concurrent channels, and it sizes
	// itself with -mc-channels, not -runs.
	{name: "manychannel", costly: true, run: func(o options) string {
		return manychannel(o.mcChannels, o.mcRouters, o.seed) + "\n"
	}},
}

// tracedOptions carries the single-run observability flags.
type tracedOptions struct {
	out, format, filter, metrics string
	proto, topo                  string
	receivers                    int
	seed                         int64
	check                        bool
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hbhsim: "+format+"\n", args...)
	os.Exit(2)
}

// runTraced executes one simulation with the observability layer
// attached: the protocol event stream goes to -trace-out (stdout by
// default), counters to -obs-metrics, and the run summary to stderr so
// the event stream stays machine-parseable.
func runTraced(opt tracedOptions) {
	proto, ok := map[string]experiment.Protocol{
		"hbh":          experiment.HBH,
		"hbh-nofusion": experiment.HBHNoFusion,
		"reunite":      experiment.REUNITE,
		"pim-sm":       experiment.PIMSM,
		"pim-ss":       experiment.PIMSS,
	}[strings.ToLower(opt.proto)]
	if !ok {
		fail("unknown protocol %q", opt.proto)
	}
	topo := experiment.Topo(strings.ToLower(opt.topo))
	switch topo {
	case experiment.TopoISP, experiment.TopoRandom50, experiment.TopoNSFNET, experiment.TopoAbilene:
	default:
		fail("unknown topology %q", opt.topo)
	}

	o := obs.New(nil) // the run's network binds its own clock
	w := os.Stdout
	if opt.out != "" {
		f, err := os.Create(opt.out)
		if err != nil {
			fail("trace-out: %v", err)
		}
		defer f.Close()
		w = f
	}
	var episodes *obs.EpisodeBuilder
	switch opt.format {
	case "jsonl":
		o.AddSink(&obs.JSONLSink{W: w})
	case "text":
		o.AddSink(obs.NewTextSink(func(line string) { fmt.Fprintln(w, line) }))
	case "causal":
		// Causal mode buffers the run and prints reconstructed episode
		// timelines instead of the raw event stream.
		episodes = obs.NewEpisodeBuilder(0)
		o.AddSink(episodes)
	default:
		fail("unknown trace format %q (want jsonl, text or causal)", opt.format)
	}
	if opt.filter != "" {
		f, err := obs.ParseFilter(opt.filter)
		if err != nil {
			fail("trace-filter: %v", err)
		}
		o.SetFilter(f)
	}
	o.EnableRecorder(obs.DefaultRecorderDepth)
	o.SetDumpOnFaultDrop(true)
	if opt.metrics != "" {
		// Latency enables the counter registry and registers its four
		// delay histograms there, so the export below carries the full
		// delivery/hop/join-first distributions in virtual-time units.
		o.EnableLatency()
	}

	res := experiment.Run(experiment.RunConfig{
		Topo: topo, Protocol: proto, Receivers: opt.receivers,
		Seed: opt.seed, Check: opt.check, Obs: o,
	})

	if episodes != nil {
		fmt.Fprint(w, episodes.Render())
	}
	if opt.metrics != "" {
		f, err := os.Create(opt.metrics)
		if err != nil {
			fail("obs-metrics: %v", err)
		}
		if err := o.Counters().Export(f); err != nil {
			fail("obs-metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("obs-metrics: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr,
		"hbhsim: %s on %s seed=%d receivers=%d: cost=%d meanDelay=%.2f missing=%d duplicates=%d\n",
		proto, topo, opt.seed, opt.receivers,
		res.Cost, res.MeanDelay, res.Missing, res.Duplicates)
}

// manychannel runs the A14 heavy-traffic sweep. tiers is the
// -mc-channels CSV ("100,1000"); empty keeps the default
// 100/1000/10000 ladder. The worker count comes from -workers via
// experiment.DefaultWorkers; the table is byte-identical regardless.
func manychannel(tiers string, routers int, seed int64) string {
	cfg := experiment.ManyChannelConfig{Routers: routers, Seed: seed}
	if tiers != "" {
		for _, f := range strings.Split(tiers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fail("bad -mc-channels entry %q", f)
			}
			cfg.Tiers = append(cfg.Tiers, n)
		}
	}
	return experiment.ManyChannelExperiment(cfg).FormatTable()
}

// scale runs the A13 scale sweep. sizes is the -scale-sizes CSV
// ("50,5000"); empty keeps the default 50..50000 ladder.
func scale(sizes string, sources int, seed int64) string {
	cfg := experiment.ScaleConfig{Sources: sources, Seed: seed}
	if sizes != "" {
		for _, f := range strings.Split(sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 3 {
				fail("bad -scale-sizes entry %q", f)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	return experiment.ScaleExperiment(cfg).FormatTable()
}

// runFuzz drives the coverage-guided scenario fuzzer: the seed corpus
// runs first, then -fuzz-iters mutations, keeping whatever grows
// behavioral coverage. Every invariant violation is minimized, written
// as a replayable repro file (with -fuzz-out), and fails the run.
func runFuzz(iters int, seed int64, seedDir, outDir string) {
	start := time.Now()
	f := advfuzz.NewFuzzer(seed)
	f.Log = os.Stderr
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fail("fuzz-out: %v", err)
		}
		f.OutDir = outDir
	}
	seeds := advfuzz.DefaultSeeds()
	if seedDir != "" {
		var err error
		seeds, err = advfuzz.LoadSeeds(seedDir)
		if err != nil {
			fail("fuzz-seeds: %v", err)
		}
		if len(seeds) == 0 {
			fail("fuzz-seeds: no *.genome files in %s", seedDir)
		}
	}
	for _, g := range seeds {
		f.AddSeed(g)
	}
	st := f.Run(iters)
	fmt.Printf("fuzz campaign: %d seeds + %d iterations, %d interesting, corpus %d, coverage %d atoms, %d findings\n",
		len(seeds), st.Iterations, st.Interesting, st.CorpusSize, st.Atoms, st.Findings)
	for _, atom := range f.Coverage() {
		fmt.Println("  " + atom)
	}
	fmt.Fprintf(os.Stderr, "hbhsim: fuzz done in %v\n", time.Since(start).Round(time.Millisecond))
	if st.Findings > 0 {
		os.Exit(1)
	}
}

// runFuzzReplay runs one saved scenario genome through the adversarial
// engine with the invariant oracle attached and reports the outcome; a
// violation exits non-zero, so committed repro files double as
// regression checks.
func runFuzzReplay(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("fuzz-replay: %v", err)
	}
	g, err := advfuzz.ParseGenome(string(data))
	if err != nil {
		fail("fuzz-replay: %v", err)
	}
	out := advfuzz.Execute(g)
	r := out.Result
	fmt.Printf("replay %s: %s\n", g.ID(), g)
	fmt.Printf("clean: time=%.1f converged=%v\n", float64(r.CleanTime), r.CleanConverged)
	fmt.Printf("window: disruption=%.3f advdrops=%d advdups=%d\n",
		r.Disruption, r.WindowStats.AdvLossDrops, r.WindowStats.AdvDups)
	fmt.Printf("recovery: time=%.1f recovered=%v missing=%d duplicates=%d\n",
		float64(r.RecoveryTime), r.Recovered, r.Missing, r.Duplicates)
	fmt.Printf("coverage: %d atoms\n", len(out.Signature))
	if len(r.Violations) == 0 {
		fmt.Println("invariants: clean")
		return
	}
	fmt.Printf("invariants: %d violation(s)\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Println("  " + v.String())
	}
	os.Exit(1)
}
