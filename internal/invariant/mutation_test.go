// Mutation test: the checker's reason to exist is catching a broken
// protocol engine, so this file breaks one on purpose — a real HBH sim
// converges cleanly, then its source table is corrupted the way a buggy
// fusion handler would (a member handed to a relay without the direct
// entry being marked over), and the checker must report it attributed
// to the right node and channel.
package invariant_test

import (
	"fmt"
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/invariant"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

type hbhSim struct {
	sim     *eventsim.Sim
	g       *topology.Graph
	net     *netsim.Network
	cfg     core.Config
	routers []*core.Router
}

func newHBHSim(g *topology.Graph) *hbhSim {
	s := &hbhSim{sim: eventsim.New(), g: g, cfg: core.DefaultConfig()}
	s.net = netsim.New(s.sim, g, unicast.Compute(g))
	for _, id := range g.Routers() {
		s.routers = append(s.routers, core.AttachRouter(s.net.Node(id), s.cfg))
	}
	return s
}

func hostAt(g *topology.Graph, r int) topology.NodeID {
	for _, hID := range g.Hosts() {
		if g.AttachedRouter(hID) == topology.NodeID(r) {
			return hID
		}
	}
	panic("no host")
}

func TestMutationBrokenFusionCaught(t *testing.T) {
	g := topology.Line(5, true)
	s := newHBHSim(g)

	src := core.AttachSource(s.net.Node(hostAt(g, 0)), addr.GroupAddr(0), s.cfg)
	chk := invariant.New(s.net, src.Channel(), invariant.ProfileHBH(),
		core.NewAudit(src, s.routers))
	r2 := core.AttachReceiver(s.net.Node(hostAt(g, 2)), src.Channel(), s.cfg)
	r4 := core.AttachReceiver(s.net.Node(hostAt(g, 4)), src.Channel(), s.cfg)
	s.sim.At(10, r2.Join)
	s.sim.At(25, r4.Join)
	if err := s.sim.Run(40 * s.cfg.TreeInterval); err != nil {
		t.Fatal(err)
	}

	res := mtree.Probe(s.net, func() uint32 { return src.SendData([]byte("probe")) },
		[]mtree.Member{r2, r4})
	chk.SetMembers([]addr.Addr{r2.Addr(), r4.Addr()})
	chk.CheckConverged(res.Seq)
	if !chk.Clean() {
		t.Fatalf("healthy sim flagged:\n%s", chk.Report())
	}

	// The deliberate bug: resurrect a direct source->r4 forwarding entry
	// while the branching router downstream still serves r4. A fusion
	// handler that marked entries without installing the relay check —
	// or un-marked one it should not — leaves exactly this parallel
	// delivery chain.
	src.MFT().Add(r4.Addr(), clock.NewSoftTimer(clock.Sim(s.sim), s.cfg.T1, s.cfg.T2, nil, nil))

	chk.CheckConverged(res.Seq)
	if chk.Clean() {
		t.Fatal("checker missed the injected parallel delivery chain")
	}
	var found *invariant.Violation
	for i, v := range chk.Violations() {
		if v.Invariant == "unique-service" {
			found = &chk.Violations()[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no unique-service violation in:\n%s", chk.Report())
	}
	if found.Node != r4.Addr() {
		t.Errorf("violation attributed to %v, want the doubly-served member %v",
			found.Node, r4.Addr())
	}
	if found.Channel != src.Channel() {
		t.Errorf("violation on channel %v, want %v", found.Channel, src.Channel())
	}
	if found.Tree == "" || !strings.Contains(found.Tree, "tree root=") {
		t.Errorf("violation carries no reconstructed tree dump:\n%s", found.String())
	}
}

// observedViolation forces TestMutationBrokenFusionCaught's corruption
// with o wired into the network and the checker, and returns the
// unique-service violation the checker records and the channel it
// watches.
func observedViolation(t *testing.T, o *obs.Observer) (*invariant.Violation, addr.Channel) {
	t.Helper()
	g := topology.Line(5, true)
	s := newHBHSim(g)
	s.net.SetObserver(o)

	src := core.AttachSource(s.net.Node(hostAt(g, 0)), addr.GroupAddr(0), s.cfg)
	chk := invariant.New(s.net, src.Channel(), invariant.ProfileHBH(),
		core.NewAudit(src, s.routers))
	chk.SetObserver(o)
	r2 := core.AttachReceiver(s.net.Node(hostAt(g, 2)), src.Channel(), s.cfg)
	r4 := core.AttachReceiver(s.net.Node(hostAt(g, 4)), src.Channel(), s.cfg)
	s.sim.At(10, r2.Join)
	s.sim.At(25, r4.Join)
	if err := s.sim.Run(40 * s.cfg.TreeInterval); err != nil {
		t.Fatal(err)
	}

	res := mtree.Probe(s.net, func() uint32 { return src.SendData([]byte("probe")) },
		[]mtree.Member{r2, r4})
	chk.SetMembers([]addr.Addr{r2.Addr(), r4.Addr()})
	src.MFT().Add(r4.Addr(), clock.NewSoftTimer(clock.Sim(s.sim), s.cfg.T1, s.cfg.T2, nil, nil))
	chk.CheckConverged(res.Seq)
	if chk.Clean() {
		t.Fatal("checker missed the injected parallel delivery chain")
	}
	for i, v := range chk.Violations() {
		if v.Invariant == "unique-service" {
			return &chk.Violations()[i], src.Channel()
		}
	}
	t.Fatalf("no unique-service violation in:\n%s", chk.Report())
	return nil, addr.Channel{}
}

// TestMutationViolationCarriesFlightRecorder forces the same corruption
// with the observability layer attached and requires the violation to
// carry the offending node's flight-recorder dump — the last protocol
// events that node saw before the breach.
func TestMutationViolationCarriesFlightRecorder(t *testing.T) {
	o := obs.New(nil)
	o.EnableRecorder(obs.DefaultRecorderDepth)
	found, _ := observedViolation(t, o)
	if !strings.Contains(found.Recent, "flight recorder:") {
		t.Fatalf("violation carries no flight-recorder dump:\n%s", found.String())
	}
	// The dump must show actual protocol history of the violating node:
	// its joins went out and data arrived before the corruption.
	if !strings.Contains(found.Recent, "JOIN-SEND") && !strings.Contains(found.Recent, "DELIVER") {
		t.Errorf("flight-recorder dump has no protocol events:\n%s", found.Recent)
	}
	if !strings.Contains(found.String(), "flight recorder:") {
		t.Errorf("String() omits the recorder dump:\n%s", found.String())
	}
}

// TestMutationViolationCitesEpisode: a violation found under an observer
// cites the causal episode of the channel's last structural mutation,
// the cascade that last reshaped the tree. The checker runs between
// events, where no packet is in flight to name one.
func TestMutationViolationCitesEpisode(t *testing.T) {
	o := obs.New(nil)
	found, ch := observedViolation(t, o)
	want := o.Convergence().Channel(ch).LastEpisode
	if want == 0 {
		t.Fatal("no structural mutation recorded on the channel")
	}
	if obs.EpisodeID(found.Episode) != want {
		t.Errorf("violation cites episode %d, want %d (the last mutation's)", found.Episode, want)
	}
	if line := fmt.Sprintf("causal episode %d", want); !strings.Contains(found.String(), line) {
		t.Errorf("String() omits %q:\n%s", line, found.String())
	}
}
