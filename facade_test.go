package hbh_test

// Tests of the public facade: everything a downstream user would touch
// first, exercised through the root package only.

import (
	"math/rand"
	"strings"
	"testing"

	"hbh"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	g := hbh.ISPTopology()
	g.RandomizeCosts(rand.New(rand.NewSource(1)), 1, 10)
	nw := hbh.NewNetwork(g)
	cfg := hbh.DefaultConfig()
	nw.EnableHBH(cfg)

	src := nw.NewHBHSource(hbh.ISPSourceHost, hbh.Group(0), cfg)
	if !src.Channel().Valid() {
		t.Fatal("invalid channel")
	}
	var members []hbh.Member
	for i, host := range []hbh.NodeID{20, 25, 30} {
		r := nw.NewHBHReceiver(host, src.Channel(), cfg)
		nw.At(hbh.Time(10+i*20), r.Join)
		members = append(members, r)
	}
	nw.RunFor(4000)
	res := nw.Probe(src.SendData, members...)
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	if res.MaxLinkCopies() != 1 {
		t.Errorf("link duplication on converged HBH tree:\n%s", res.FormatTree(g))
	}
	for _, m := range members {
		want := hbh.Time(nw.Routing().Dist(hbh.ISPSourceHost, g.MustByAddr(m.Addr())))
		if got := res.Delays[m.Addr()]; got != want {
			t.Errorf("%v delay = %v, want shortest-path %v", m.Addr(), got, want)
		}
	}
}

func TestFacadeTopologies(t *testing.T) {
	if got := hbh.ISPTopology().NumNodes(); got != 36 {
		t.Errorf("ISP nodes = %d, want 36", got)
	}
	g := hbh.RandomTopology(20, 4, rand.New(rand.NewSource(2)))
	if len(g.Routers()) != 20 || !g.Connected() {
		t.Error("random topology broken")
	}
	if hbh.LineTopology(3).NumNodes() != 6 {
		t.Error("line topology broken")
	}
	if !hbh.Group(3).IsMulticast() {
		t.Error("Group not class-D")
	}
}

func TestFacadePIMBuilders(t *testing.T) {
	g := hbh.LineTopology(5)
	g.RandomizeCosts(rand.New(rand.NewSource(3)), 1, 10)
	nw := hbh.NewNetwork(g)
	members := []hbh.NodeID{g.Hosts()[2], g.Hosts()[4]}
	ss := nw.BuildPIMSS(g.Hosts()[0], hbh.Group(0), members)
	var ms []hbh.Member
	for _, m := range members {
		ms = append(ms, ss.Member(m))
	}
	res := nw.Probe(ss.SendData, ms...)
	if !res.Complete() {
		t.Fatalf("PIM-SS incomplete: %v", res)
	}

	nw2 := hbh.NewNetwork(g.Clone())
	g2 := nw2.Graph()
	members2 := []hbh.NodeID{g2.Hosts()[2], g2.Hosts()[4]}
	sm := nw2.BuildPIMSM(g2.Hosts()[0], hbh.Group(0), members2, 2)
	if sm.RP() != 2 {
		t.Errorf("RP = %d, want 2", sm.RP())
	}
	var ms2 []hbh.Member
	for _, m := range members2 {
		ms2 = append(ms2, sm.Member(m))
	}
	if res := nw2.Probe(sm.SendData, ms2...); !res.Complete() {
		t.Fatalf("PIM-SM incomplete: %v", res)
	}
}

func TestFacadeREUNITE(t *testing.T) {
	g := hbh.LineTopology(4)
	nw := hbh.NewNetwork(g)
	cfg := hbh.ReuniteConfig{JoinInterval: 100, TreeInterval: 100, T1: 350, T2: 350}
	nw.EnableREUNITE(cfg)
	src := nw.NewREUNITESource(g.Hosts()[0], hbh.Group(0), cfg)
	r := nw.NewREUNITEReceiver(g.Hosts()[3], src.Channel(), cfg)
	nw.At(5, r.Join)
	nw.RunFor(3000)
	res := nw.Probe(src.SendData, r)
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
}

func TestFacadeTrace(t *testing.T) {
	g := hbh.LineTopology(3)
	nw := hbh.NewNetwork(g)
	cfg := hbh.DefaultConfig()
	nw.EnableHBH(cfg)
	var lines []string
	nw.SetTrace(func(l string) { lines = append(lines, l) })
	src := nw.NewHBHSource(g.Hosts()[0], hbh.Group(0), cfg)
	r := nw.NewHBHReceiver(g.Hosts()[2], src.Channel(), cfg)
	nw.At(5, r.Join)
	nw.RunFor(300)
	if len(lines) == 0 {
		t.Fatal("no trace lines")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "join") {
		t.Error("trace missing join messages")
	}
	nw.SetTrace(nil) // must not panic
	nw.RunFor(100)
}

func TestFacadePartialDeployment(t *testing.T) {
	g := hbh.LineTopology(4)
	nw := hbh.NewNetwork(g)
	cfg := hbh.DefaultConfig()
	routers := nw.EnableHBHOn(cfg, []hbh.NodeID{0, 2})
	if len(routers) != 2 || routers[0] == nil || routers[2] == nil {
		t.Fatal("EnableHBHOn broken")
	}
	src := nw.NewHBHSource(g.Hosts()[0], hbh.Group(0), cfg)
	r := nw.NewHBHReceiver(g.Hosts()[3], src.Channel(), cfg)
	nw.At(5, r.Join)
	nw.RunFor(3000)
	res := nw.Probe(src.SendData, r)
	if !res.Complete() {
		t.Fatalf("partial deployment broke delivery: %v", res)
	}
}

func TestFacadeIGMP(t *testing.T) {
	g := hbh.LineTopology(3)
	nw := hbh.NewNetwork(g)
	cfg := hbh.DefaultConfig()
	routers := nw.EnableHBH(cfg)

	src := nw.NewHBHSource(g.Hosts()[0], hbh.Group(0), cfg)
	q, leaf := nw.EnableIGMP(2, routers[2], cfg, hbh.DefaultIGMPConfig())
	member := nw.NewIGMPHost(g.Hosts()[2], hbh.DefaultIGMPConfig())

	ch := src.Channel()
	nw.At(10, func() { member.Join(ch) })
	nw.RunFor(4000)

	if len(q.Members(ch)) == 0 {
		t.Fatal("querier has no members")
	}
	if !leaf.Subscribed(ch) {
		t.Fatal("leaf not subscribed")
	}
	res := nw.Probe(src.SendData, member)
	if !res.Complete() {
		t.Fatalf("IGMP member not served: %v", res)
	}
}

func TestFacadeFigureHelpers(t *testing.T) {
	fig := hbh.Figure7a(2, 1)
	if fig.ID != "7a" || len(fig.Series) != 4 {
		t.Errorf("Figure7a = %s with %d series", fig.ID, len(fig.Series))
	}
}
