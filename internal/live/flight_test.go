package live

import (
	"runtime"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// hbhdObserver builds the pipeline cmd/hbhd's attachObserver builds:
// counters, latency, convergence and a 256-deep flight recorder, no
// sink.
func hbhdObserver() *obs.Observer {
	o := obs.New(nil)
	o.EnableCounters()
	o.EnableLatency()
	o.EnableConvergence()
	o.EnableRecorder(256)
	return o
}

// fig3Sim is the Figure-3 equivalence script run to its horizon on a
// runtime under the simulator: a converged two-receiver HBH tree.
type fig3Sim struct {
	rt  *Runtime
	sim *eventsim.Sim
	src *core.Source
}

// runFig3Sim executes the script with o attached (nil: no observer).
func runFig3Sim(t *testing.T, o *obs.Observer) fig3Sim {
	t.Helper()
	sc := topology.Fig3Scenario()
	g := sc.Graph
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	if o != nil {
		rt.SetObserver(o)
	}
	cfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(rt.Node(r), cfg)
	}
	src := core.AttachSource(rt.Node(sc.Source), addr.GroupAddr(0), cfg)
	_, script := fig3Script()
	for _, h := range []topology.NodeID{sc.R1, sc.R2} {
		sim.At(script.joins[h], core.AttachReceiver(rt.Node(h), src.Channel(), cfg).Join)
	}
	for _, at := range script.sends {
		sim.At(at, func() { src.SendData([]byte("equiv")) })
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	if err := sim.Run(script.horizon); err != nil {
		t.Fatal(err)
	}
	return fig3Sim{rt: rt, sim: sim, src: src}
}

// stream sends n data packets one time unit apart — refresh timers fire
// in between, as on a running daemon — and returns the allocations made
// and the deliveries completed meanwhile.
func (f fig3Sim) stream(t *testing.T, n int) (mallocs uint64, delivered int) {
	t.Helper()
	var before, after runtime.MemStats
	delivered = -f.rt.Stats().DataConsumed
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f.src.SendData([]byte("equiv"))
		if err := f.sim.Run(f.sim.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, delivered + f.rt.Stats().DataConsumed
}

// TestFlightRecorderGoldenFig3 pins every byte the flight recorder
// renders for the deterministic Figure-3 run under the simulator. The
// golden was captured from the recorder that rendered each line at
// record time; the recorder that snapshots the event and renders on
// dump must reproduce it exactly.
func TestFlightRecorderGoldenFig3(t *testing.T) {
	o := hbhdObserver()
	runFig3Sim(t, o)
	goldenCompare(t, "live_flight_fig3_hbh.txt", o.Recorder().DumpAll())
}

// observerAllocBudget is what hbhd's observer may add, in heap
// allocations per delivered data packet, to a run under the simulator.
// The runtime and the registries add none; what is left is the engines' own
// annotations (a formatted Detail string on the occasional protocol
// event), which the budget leaves room for and nothing more.
const observerAllocBudget = 0.5

// TestObserverAllocBudgetZeroAlloc: the full hbhd observer stack on a
// streaming tree allocates, per delivery, at most observerAllocBudget
// more than the same run with no observer at all.
func TestObserverAllocBudgetZeroAlloc(t *testing.T) {
	perDelivery := func(o *obs.Observer) float64 {
		f := runFig3Sim(t, o)
		f.stream(t, 400) // wrap every node's 256-deep ring
		mallocs, delivered := f.stream(t, 400)
		if delivered < 400 {
			t.Fatalf("400 packets to two receivers completed %d deliveries", delivered)
		}
		return float64(mallocs) / float64(delivered)
	}
	bare, observed := perDelivery(nil), perDelivery(hbhdObserver())
	t.Logf("allocations per delivery: %.2f bare, %.2f observed", bare, observed)
	if observed-bare > observerAllocBudget {
		t.Errorf("observer adds %.2f allocations per delivery (bare %.2f, observed %.2f), budget %.2f",
			observed-bare, bare, observed, observerAllocBudget)
	}
}
