// Command bench is the repository's benchmark: four long, repeatable
// workloads over the simulator and the live runtime, each run printing
// one JSON object of named metrics as its last line of output. See
// README.md in this directory for the workloads, the metrics and the
// noise rules, and BENCHMARK.json at the repository root for the
// contract.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed bench/expected.json pins exact counts for.
const defaultSeed = 1

// runCfg is one run's command line.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	cal     *refKernel
}

// outcome is what a workload hands back: per-round figures for the
// end-to-end metrics of an untraced run, or the per-layer figures of a
// traced one.
type outcome struct {
	setups            []float64 // seconds, one per set-up
	rounds            []round
	traced            []bool // per round, in a traced run
	heapMB            float64
	attempted, failed int64
	problems          []string // why the outputs are not correct
	layers            map[string]float64
	notes             []string // printed to stderr
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type benchWorkload struct {
	name string
	sim  bool // virtual time only: no wall-clock deadline to miss when the machine is slowed
	run  func(cfg runCfg) (*outcome, error)
}

func workloads() []benchWorkload {
	return []benchWorkload{
		{"sim-paper-sweep", true, runSweep},
		{"sim-manychannel-stream", true, runManyChannel},
		{"live-chan-stream", false, func(cfg runCfg) (*outcome, error) { return runLive("live-chan-stream", chanStream, cfg) }},
		{"live-udp-churn-telemetry", false, func(cfg runCfg) (*outcome, error) {
			return runLive("live-udp-churn-telemetry", udpChurn, cfg)
		}},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", defaultSeed, "the only input to workload generation")
		seconds = flag.Float64("seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/trace-<workload>.json")
		quick   = flag.Bool("quick", false, "smoke run: one short round, numbers meaningless")
		aa      = flag.Int("aa", 0, "A/A mode: two interleaved sets of this many runs per workload")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *aa > 0 {
		os.Exit(runAA(spec, *aa, *seed, *seconds, *name))
	}
	for _, w := range workloads() {
		if w.name != *name {
			continue
		}
		rep, err := runWorkload(spec, w, runCfg{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		return
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *name)
	for _, w := range workloads() {
		fmt.Fprintf(os.Stderr, " %s", w.name)
	}
	fmt.Fprintln(os.Stderr)
	os.Exit(2)
}

// runWorkload runs one workload and shapes its outcome into the
// metrics BENCHMARK.json names: the end-to-end ones untraced, the
// per-layer ones traced.
func runWorkload(spec *benchSpec, w benchWorkload, cfg runCfg) (*report, error) {
	// Everything runs on one P. In the simulator a concurrent GC on a
	// second core doubled the spread of identical rounds. In the live
	// runtime, which the workloads keep well below saturation, a second P
	// mostly spins looking for work and wakes the first, and that share of
	// CPU time moved with the machine's mood: back-to-back runs of
	// live-udp-churn-telemetry read 125-147 us per delivery on one P and
	// 148-200 us on two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var err error
	if cfg.cal, err = newRefKernel(); err != nil {
		return nil, err
	}
	defer cfg.cal.close()
	start := time.Now()
	out, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ran := time.Since(start)
	if cfg.trace {
		layers, err := layerSuite(cfg.seed, cfg.quick)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for name, v := range layers {
			out.layers[name] = v
		}
	}
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %s\n", w.name, p)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: seed %d, %d rounds in %.1f s, %.1f s in all\n", w.name, cfg.seed, len(out.rounds), ran.Seconds(), time.Since(start).Seconds())
	fmt.Fprintf(os.Stderr, "bench: %s: as measured, lower quartile of rounds: cpu %.5g us per unit, latency p50 %.5g us p90 %.5g us; reference kernel %.5g us (nominal %.5g)\n", w.name,
		quiet(column(out.rounds, func(r round) float64 { return r.cpuUsPerUnit })),
		quiet(column(out.rounds, func(r round) float64 { return r.latencyP50 })),
		quiet(column(out.rounds, func(r round) float64 { return r.latencyP90 })),
		median(column(out.rounds, func(r round) float64 { return r.refUs })), refNominalUs)
	rep := &report{
		Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric),
	}
	values := out.layers
	declared := spec.PerLayer
	if !cfg.trace {
		declared = spec.EndToEnd
		med := func(f func(round) float64) float64 { return median(column(out.rounds, f)) }
		low := func(f func(round) float64) float64 { return quiet(column(out.rounds, f)) }
		// CPU time is work, whatever the workload, and is reported at
		// reference speed (calib.go). Latency is work in the simulator,
		// the wall time of a computation. In the live runtime it is
		// mostly waiting (timers, wake-ups): scaling it by the kernel
		// steadied nothing, so it is reported as measured.
		ref := func(f func(round) float64) float64 {
			return low(func(r round) float64 { return r.atRefSpeed(f(r)) })
		}
		latency := low
		if w.sim {
			latency = ref
		}
		values = map[string]float64{
			"setup_s":              median(out.setups),
			"cpu_us_per_unit":      ref(func(r round) float64 { return r.cpuUsPerUnit }),
			"allocs_per_unit":      med(func(r round) float64 { return r.allocsPerUnit }),
			"alloc_bytes_per_unit": med(func(r round) float64 { return r.bytesPerUnit }),
			"frames_per_delivery":  med(func(r round) float64 { return r.framesPerDelivery }),
			"latency_p50_us":       latency(func(r round) float64 { return r.latencyP50 }),
			"latency_p90_us":       latency(func(r round) float64 { return r.latencyP90 }),
		}
	}
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured (%v)", w.name, d.Name, v)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("%s: measured metrics %v are not in BENCHMARK.json", w.name, extra)
	}
	return rep, nil
}
