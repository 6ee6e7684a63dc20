// Command hbhtrace replays the HBH paper's worked examples (§2.3,
// Figures 2, 3, 4 and 5) on the hop-by-hop simulator and prints the
// protocol message exchanges and the resulting distribution trees, for
// HBH and REUNITE side by side.
//
// Usage:
//
//	hbhtrace -scenario asymmetric-join             # Fig. 2 vs Fig. 5
//	hbhtrace -scenario duplication                 # Fig. 3
//	hbhtrace -scenario departure                   # Fig. 4
//	hbhtrace -scenario failure                     # link cut + router crash
//	hbhtrace -scenario asymmetric-join -verbose    # full packet trace
//	hbhtrace -scenario duplication -causal         # reconstructed causal episode timelines
//
// With -trace-files, hbhtrace instead merges per-daemon JSONL trace
// files (written by hbhd -trace-out) into one cross-process causal
// timeline: lines are ordered by their wall-clock stamps, per-daemon
// causal id namespaces are disjoint by construction, and the episode
// reconstruction is the same one -causal uses on a single simulation:
//
//	hbhtrace -trace-files A.jsonl,B.jsonl,r1.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/faults"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/reunite"
	"hbh/internal/softstate"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func main() {
	var (
		scenario   = flag.String("scenario", "asymmetric-join", "asymmetric-join | duplication | departure | failure")
		verbose    = flag.Bool("verbose", false, "print the full packet-level trace")
		causal     = flag.Bool("causal", false, "print the reconstructed causal episode timelines after each protocol's run")
		traceFiles = flag.String("trace-files", "", "comma-separated per-daemon JSONL trace files (hbhd -trace-out): merge into one cross-process causal timeline and print it")
	)
	flag.Parse()

	if *traceFiles != "" {
		b, err := obs.LoadCausalFiles(strings.Split(*traceFiles, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbhtrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("cross-process causal timelines:\n%s", b.Render())
		return
	}

	var sc topology.Scenario
	switch *scenario {
	case "asymmetric-join", "departure", "failure":
		sc = topology.Fig2Scenario()
	case "duplication":
		sc = topology.Fig3Scenario()
	default:
		fmt.Fprintf(os.Stderr, "hbhtrace: unknown scenario %q\n", *scenario)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("Topology:\n%s\n", sc.Graph.String())

	// The failure scenario exercises HBH's self-healing; the worked
	// examples compare both protocols.
	protos := []string{"REUNITE", "HBH"}
	if *scenario == "failure" {
		protos = []string{"HBH"}
	}
	for _, proto := range protos {
		fmt.Printf("=== %s ===\n", proto)
		runScenario(proto, *scenario, sc, *verbose, *causal)
		fmt.Println()
	}
}

// session abstracts the two dynamic protocols for the tracer.
type session struct {
	sim    *eventsim.Sim
	net    *netsim.Network
	send   func() uint32
	r1, r2 *softstate.Receiver
	// routers gives the failure scenario access to protocol state loss
	// on crash (HBH only).
	routers map[topology.NodeID]*core.Router
	// episodes collects the causal timelines when -causal is on.
	episodes *obs.EpisodeBuilder
}

func buildSession(proto string, sc topology.Scenario, verbose, causal bool) *session {
	sim := eventsim.New()
	net := netsim.New(sim, sc.Graph, unicast.Compute(sc.Graph))
	s := &session{sim: sim, net: net}
	if verbose || causal {
		// One observer carries both sinks, so -verbose and -causal
		// compose instead of the second install replacing the first.
		o := obs.New(nil) // SetObserver binds the network's clock
		if verbose {
			o.AddSink(obs.NewTextSink(func(line string) { fmt.Println("   ", line) }))
		}
		if causal {
			s.episodes = obs.NewEpisodeBuilder(0)
			o.AddSink(s.episodes)
		}
		net.SetObserver(o)
	}

	// The protocol packages differ only in which engines they attach;
	// the session body below runs on the types they share.
	var src *softstate.Source
	var receiver func(host topology.NodeID) *softstate.Receiver
	switch proto {
	case "HBH":
		cfg := core.DefaultConfig()
		s.routers = make(map[topology.NodeID]*core.Router)
		for _, r := range sc.Graph.Routers() {
			s.routers[r] = core.AttachRouter(net.Node(r), cfg)
		}
		src = core.AttachSource(net.Node(sc.Source), addr.GroupAddr(0), cfg).Source
		receiver = func(h topology.NodeID) *softstate.Receiver {
			return core.AttachReceiver(net.Node(h), src.Channel(), cfg)
		}
	case "REUNITE":
		cfg := reunite.DefaultConfig()
		for _, r := range sc.Graph.Routers() {
			reunite.AttachRouter(net.Node(r), cfg)
		}
		src = reunite.AttachSource(net.Node(sc.Source), addr.GroupAddr(0), cfg).Source
		receiver = func(h topology.NodeID) *softstate.Receiver {
			return reunite.AttachReceiver(net.Node(h), src.Channel(), cfg)
		}
	default:
		panic("unknown protocol " + proto)
	}
	s.r1, s.r2 = receiver(sc.R1), receiver(sc.R2)
	sim.At(10, s.r1.Join)
	sim.At(130, s.r2.Join)
	s.send = func() uint32 { return src.SendData([]byte("payload")) }
	return s
}

func runScenario(proto, scenario string, sc topology.Scenario, verbose, causal bool) {
	s := buildSession(proto, sc, verbose, causal)
	defer func() {
		if s.episodes != nil {
			fmt.Printf("causal timelines:\n%s", s.episodes.Render())
		}
	}()
	g := sc.Graph

	run := func(d eventsim.Time) {
		if err := s.sim.Run(s.sim.Now() + d); err != nil {
			panic(err)
		}
	}
	probe := func(members ...mtree.Member) *mtree.Result {
		return mtree.Probe(s.net, s.send, members)
	}
	delays := func(res *mtree.Result) {
		for _, m := range []mtree.Member{s.r1, s.r2} {
			if d, ok := res.Delays[m.Addr()]; ok {
				sp := s.net.Routing().Dist(sc.Source, g.MustByAddr(m.Addr()))
				fmt.Printf("  %v delay %v (shortest possible %d)\n", m.Addr(), d, sp)
			} else {
				fmt.Printf("  %v NOT SERVED\n", m.Addr())
			}
		}
	}

	run(4000) // converge
	res := probe(s.r1, s.r2)
	fmt.Printf("converged tree (one data packet):\n%s", res.FormatTree(g))
	fmt.Printf("tree cost: %d packet copies\n", res.Cost)
	delays(res)

	if scenario == "failure" {
		// Fault script on the Fig. 2 ring: cut the A-D shortcut r2's
		// branch rides on, heal it, then crash router B on r1's branch.
		// Every event is announced as it fires, interleaved with the
		// probes; HBH must reroute each time with no repair messages.
		gen := core.DefaultConfig().Generation()
		a, b, d := topology.NodeID(0), topology.NodeID(1), topology.NodeID(3)
		t0 := s.sim.Now()
		plan := faults.NewPlan().
			LinkDown(t0+100, a, d).
			LinkUp(t0+100+12*gen, a, d).
			NodeDown(t0+100+28*gen, b).
			NodeUp(t0+100+30*gen, b)
		in := faults.NewInjector(s.net, plan)
		in.OnNodeDown(func(v topology.NodeID) {
			if r := s.routers[v]; r != nil {
				r.Reset()
			}
		})
		in.OnEvent(func(ev faults.Event) {
			switch ev.Kind {
			case faults.NodeDown, faults.NodeUp:
				fmt.Printf("%8.1f  %s %s\n", float64(s.sim.Now()), ev.Kind, g.Node(ev.A).Name)
			default:
				fmt.Printf("%8.1f  %s %s-%s\n", float64(s.sim.Now()), ev.Kind,
					g.Node(ev.A).Name, g.Node(ev.B).Name)
			}
		})
		in.Schedule()

		report := func(label string) {
			res := probe(s.r1, s.r2)
			fmt.Printf("tree %s:\n%s", label, res.FormatTree(g))
			delays(res)
		}
		run(100 + 8*gen) // the cut fires, then the tree re-heals
		report("with link A-D down")
		run(12 * gen) // past the repair, settled again
		report("after link repair")
		run(14 * gen) // past crash and restart, settled again
		report("after router B crash and restart")
		return
	}

	if scenario == "departure" {
		fmt.Println("r1 leaves the channel ...")
		s.r1.Leave()
		run(4000)
		after := probe(s.r2)
		fmt.Printf("tree after departure:\n%s", after.FormatTree(g))
		fmt.Printf("tree cost: %d\n", after.Cost)
		before, afterD := res.Delays[s.r2.Addr()], after.Delays[s.r2.Addr()]
		switch {
		case len(after.Missing) > 0:
			fmt.Println("  r2 LOST service")
		case before != afterD:
			fmt.Printf("  r2 ROUTE CHANGED: delay %v -> %v\n", before, afterD)
		default:
			fmt.Printf("  r2 route unchanged (delay %v)\n", afterD)
		}
	}
}
