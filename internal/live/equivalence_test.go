package live

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/reunite"
	"hbh/internal/softstate"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// These tests pin the central claim of the live runtime: executed
// under the simulated clock and the in-process transport, the
// unmodified protocol engines produce byte-identical protocol tables
// and delivery sets to the netsim path, even though every packet now
// crosses the real wire codec and the transport framing. The dumps
// are additionally pinned as goldens alongside results/quick/ so a
// semantic drift in either execution path fails loudly.

var equivGroup = addr.GroupAddr(0)

// equivScript is the deterministic driver both paths execute: join
// times, data send times and the settle horizon, all in virtual units.
type equivScript struct {
	joins   map[topology.NodeID]eventsim.Time // receiver host -> join time
	sends   []eventsim.Time
	horizon eventsim.Time
}

// equivWorld is one protocol's engines attached for an equivalence
// run: the shared-type handles the harness drives, plus the renderer of
// the protocol's final state (the goldens pin each protocol's own dump
// format).
type equivWorld struct {
	src      *softstate.Source
	receiver func(netsim.ProtoNode) *softstate.Receiver
	dump     func(receivers map[topology.NodeID]*softstate.Receiver) string
}

// equivProto attaches one protocol's engines through node — either
// execution path hands out netsim.ProtoNode.
type equivProto func(g *topology.Graph, node func(topology.NodeID) netsim.ProtoNode,
	srcHost topology.NodeID) equivWorld

func equivHBH(g *topology.Graph, node func(topology.NodeID) netsim.ProtoNode,
	srcHost topology.NodeID) equivWorld {
	cfg := core.DefaultConfig()
	routers := make(map[topology.NodeID]*core.Router)
	for _, r := range g.Routers() {
		routers[r] = core.AttachRouter(node(r), cfg)
	}
	src := core.AttachSource(node(srcHost), equivGroup, cfg)
	ch := src.Channel()
	dump := func(receivers map[topology.NodeID]*softstate.Receiver) string {
		var b strings.Builder
		fmt.Fprintf(&b, "channel %v\n", ch)
		fmt.Fprintf(&b, "source mft=%s\n", src.MFT().String())
		for _, id := range g.Routers() {
			r := routers[id]
			mft, mct := "-", "-"
			if t := r.MFTFor(ch); t != nil && t.Len() > 0 {
				var e []string
				for _, en := range t.Entries() {
					s := en.Node.String()
					if en.Marked {
						s += "(m)"
					}
					if en.ServedBy != addr.Unspecified {
						s += "<-" + en.ServedBy.String()
					}
					e = append(e, s)
				}
				mft = "[" + strings.Join(e, " ") + "]"
			}
			if c := r.MCTFor(ch); c != nil {
				mct = c.Node.String()
			}
			fmt.Fprintf(&b, "router %s mft=%s mct=%s\n", g.Node(id).Name, mft, mct)
		}
		for _, id := range hostOrder(g, receivers) {
			r := receivers[id]
			var ds []string
			for _, d := range r.Deliveries {
				ds = append(ds, fmt.Sprintf("%d@%g", d.Seq, float64(d.At)))
			}
			fmt.Fprintf(&b, "receiver %s dups=%d deliveries=[%s]\n",
				g.Node(id).Name, r.DupCount, strings.Join(ds, " "))
		}
		return b.String()
	}
	return equivWorld{
		src:      src.Source,
		receiver: func(n netsim.ProtoNode) *softstate.Receiver { return core.AttachReceiver(n, ch, cfg) },
		dump:     dump,
	}
}

func equivREUNITE(g *topology.Graph, node func(topology.NodeID) netsim.ProtoNode,
	srcHost topology.NodeID) equivWorld {
	cfg := reunite.DefaultConfig()
	routers := make(map[topology.NodeID]*reunite.Router)
	for _, r := range g.Routers() {
		routers[r] = reunite.AttachRouter(node(r), cfg)
	}
	src := reunite.AttachSource(node(srcHost), equivGroup, cfg)
	ch := src.Channel()
	dump := func(receivers map[topology.NodeID]*softstate.Receiver) string {
		var b strings.Builder
		for _, id := range g.Routers() {
			mft := "-"
			if tb := routers[id].MFTFor(ch); tb != nil {
				mft = tb.String()
			}
			fmt.Fprintf(&b, "router %s mft=%s\n", g.Node(id).Name, mft)
		}
		for _, h := range hostOrder(g, receivers) {
			rcv := receivers[h]
			var ds []string
			for seq := uint32(1); seq <= 3; seq++ {
				if at, ok := rcv.DeliveryAt(seq); ok {
					ds = append(ds, fmt.Sprintf("%d@%g(x%d)", seq, float64(at), rcv.DeliveryCount(seq)))
				}
			}
			fmt.Fprintf(&b, "receiver %s deliveries=[%s]\n", g.Node(h).Name, strings.Join(ds, " "))
		}
		return b.String()
	}
	return equivWorld{
		src:      src.Source,
		receiver: func(n netsim.ProtoNode) *softstate.Receiver { return reunite.AttachReceiver(n, ch, cfg) },
		dump:     dump,
	}
}

func hostOrder(g *topology.Graph, m map[topology.NodeID]*softstate.Receiver) []topology.NodeID {
	var ids []topology.NodeID
	for _, h := range g.Hosts() {
		if _, ok := m[h]; ok {
			ids = append(ids, h)
		}
	}
	return ids
}

// runEquiv executes the script with p's engines on one execution path:
// the reference netsim network, or (liveMode) the live runtime under
// the simulated clock + in-process synchronous transport.
func runEquiv(t *testing.T, liveMode bool, p equivProto,
	build func() (*topology.Graph, topology.NodeID), script equivScript) string {
	t.Helper()
	g, srcHost := build()
	routing := unicast.Compute(g)
	sim := eventsim.New()
	var rt *Runtime
	var node func(topology.NodeID) netsim.ProtoNode
	if liveMode {
		rt = New(Config{Graph: g, Routing: routing, Sim: sim})
		node = func(id topology.NodeID) netsim.ProtoNode { return rt.Node(id) }
	} else {
		net := netsim.New(sim, g, routing)
		node = func(id topology.NodeID) netsim.ProtoNode { return net.Node(id) }
	}
	w := p(g, node, srcHost)
	receivers := make(map[topology.NodeID]*softstate.Receiver)
	for h, at := range script.joins {
		rcv := w.receiver(node(h))
		receivers[h] = rcv
		sim.At(at, rcv.Join)
	}
	for _, at := range script.sends {
		sim.At(at, func() { w.src.SendData([]byte("equiv")) })
	}
	if liveMode {
		rt.Start()
		defer rt.Stop()
	}
	if err := sim.Run(script.horizon); err != nil {
		t.Fatalf("run (live=%v): %v", liveMode, err)
	}
	return w.dump(receivers)
}

// checkEquiv runs the script on both paths, requires identical dumps
// and pins the live one as a golden.
func checkEquiv(t *testing.T, p equivProto, build func() (*topology.Graph, topology.NodeID),
	script equivScript, golden string) {
	t.Helper()
	ref := runEquiv(t, false, p, build, script)
	live := runEquiv(t, true, p, build, script)
	if ref != live {
		t.Fatalf("live execution diverged from netsim:\n--- netsim ---\n%s--- live ---\n%s", ref, live)
	}
	goldenCompare(t, golden, live)
}

// goldenCompare pins got against results/quick/<name>, regenerating
// under HBH_UPDATE_GOLDEN=1 (matching the cmd e2e suites).
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "results", "quick", name)
	if os.Getenv("HBH_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (run with HBH_UPDATE_GOLDEN=1): %v", name, err)
	}
	if string(want) != got {
		t.Errorf("golden %s drifted:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// fig3Script is the Figure-3 scenario both protocols are pinned on.
func fig3Script() (func() (*topology.Graph, topology.NodeID), equivScript) {
	sc := topology.Fig3Scenario()
	build := func() (*topology.Graph, topology.NodeID) {
		sc := topology.Fig3Scenario() // a fresh graph per execution path
		return sc.Graph, sc.Source
	}
	return build, equivScript{
		joins:   map[topology.NodeID]eventsim.Time{sc.R1: 10, sc.R2: 130},
		sends:   []eventsim.Time{450, 460, 470},
		horizon: 600,
	}
}

func TestEquivalenceHBHFig3(t *testing.T) {
	build, script := fig3Script()
	checkEquiv(t, equivHBH, build, script, "live_equivalence_fig3_hbh.txt")
}

func TestEquivalenceHBHISP(t *testing.T) {
	build := func() (*topology.Graph, topology.NodeID) {
		g := topology.ISP()
		return g, g.Hosts()[0]
	}
	hosts := topology.ISP().Hosts()
	script := equivScript{
		joins: map[topology.NodeID]eventsim.Time{
			hosts[3]:  10,
			hosts[7]:  40,
			hosts[11]: 70,
			hosts[5]:  250, // joins after the first fusion cycle
		},
		sends:   []eventsim.Time{500, 510, 520},
		horizon: 700,
	}
	checkEquiv(t, equivHBH, build, script, "live_equivalence_isp_hbh.txt")
}

// TestEquivalenceHBHFig2 is the paper's Figure-2 asymmetric case: the
// script netsim's strict-wire mode once ran, kept here where the frame
// wire is the strict wire.
func TestEquivalenceHBHFig2(t *testing.T) {
	build := func() (*topology.Graph, topology.NodeID) {
		sc := topology.Fig2Scenario()
		return sc.Graph, sc.Source
	}
	sc := topology.Fig2Scenario()
	script := equivScript{
		joins:   map[topology.NodeID]eventsim.Time{sc.R1: 10, sc.R2: 130},
		sends:   []eventsim.Time{450, 460, 470},
		horizon: 600,
	}
	checkEquiv(t, equivHBH, build, script, "live_equivalence_fig2_hbh.txt")
}

// TestEquivalenceREUNITEFig3 repeats the exercise for the second
// protocol: the runtime is engine-agnostic, so equivalence must hold
// for REUNITE's interception semantics too.
func TestEquivalenceREUNITEFig3(t *testing.T) {
	build, script := fig3Script()
	checkEquiv(t, equivREUNITE, build, script, "live_equivalence_fig3_reunite.txt")
}
