package igmp

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// lanGraph builds one router with n hosts attached.
func lanGraph(n int) *topology.Graph {
	g := topology.New()
	r := g.AddNode(topology.Router, addr.RouterAddr(0), "R")
	for i := 0; i < n; i++ {
		h := g.AddNode(topology.Host, addr.ReceiverAddr(i), "h")
		g.AddLink(h, r, 1, 1)
	}
	return g
}

type edgeLog struct {
	first, gone int
}

func (e *edgeLog) FirstLocalMember(obs.Causal, addr.Channel) { e.first++ }
func (e *edgeLog) LastLocalMemberGone(addr.Channel)          { e.gone++ }

func setup(t *testing.T, hosts int) (*eventsim.Sim, *netsim.Network, *Querier, []*Host, addr.Channel) {
	t.Helper()
	g := lanGraph(hosts)
	sim := eventsim.New()
	net := netsim.New(sim, g, unicast.Compute(g))
	q := AttachQuerier(net.Node(0), DefaultConfig())
	var hs []*Host
	for _, hid := range g.Hosts() {
		hs = append(hs, AttachHost(net.Node(hid), DefaultConfig()))
	}
	ch := addr.Channel{S: addr.MustParse("10.9.0.1"), G: addr.GroupAddr(0)}
	return sim, net, q, hs, ch
}

func TestJoinReportsMembership(t *testing.T) {
	sim, _, q, hs, ch := setup(t, 3)
	log := &edgeLog{}
	q.SetListener(log)

	sim.At(10, func() { hs[0].Join(ch) })
	sim.At(20, func() { hs[2].Join(ch) })
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	if !q.HasMembers(ch) {
		t.Fatal("no members after joins")
	}
	ms := q.Members(ch)
	if len(ms) != 2 {
		t.Fatalf("members = %v, want 2", ms)
	}
	if log.first != 1 {
		t.Errorf("FirstLocalMember fired %d times, want 1", log.first)
	}
	if log.gone != 0 {
		t.Errorf("LastLocalMemberGone fired early")
	}
}

func TestExplicitLeave(t *testing.T) {
	sim, _, q, hs, ch := setup(t, 2)
	log := &edgeLog{}
	q.SetListener(log)
	sim.At(10, func() { hs[0].Join(ch); hs[1].Join(ch) })
	sim.At(100, func() { hs[0].Leave(ch) })
	if err := sim.Run(150); err != nil {
		t.Fatal(err)
	}
	if len(q.Members(ch)) != 1 {
		t.Fatalf("members = %v, want 1 after leave", q.Members(ch))
	}
	sim.At(200, func() { hs[1].Leave(ch) })
	if err := sim.Run(260); err != nil {
		t.Fatal(err)
	}
	if q.HasMembers(ch) {
		t.Error("members remain after both left")
	}
	if log.gone != 1 {
		t.Errorf("LastLocalMemberGone fired %d times, want 1", log.gone)
	}
}

func TestSilentTimeout(t *testing.T) {
	sim, net, q, hs, ch := setup(t, 1)
	log := &edgeLog{}
	q.SetListener(log)
	sim.At(10, func() { hs[0].Join(ch) })
	if err := sim.Run(80); err != nil {
		t.Fatal(err)
	}
	if !q.HasMembers(ch) {
		t.Fatal("member not registered")
	}
	// Silence the host by force: mark it left locally WITHOUT sending
	// a leave (simulating a crashed host). Queries go unanswered and
	// the membership must time out.
	hs[0].joined = map[addr.Channel]bool{}
	if err := sim.Run(80 + 3*250); err != nil {
		t.Fatal(err)
	}
	if q.HasMembers(ch) {
		t.Error("silent member never timed out")
	}
	if log.gone != 1 {
		t.Errorf("LastLocalMemberGone fired %d times, want 1", log.gone)
	}
	_ = net
}

// TestQueriesSustainMembership: with queries flowing, a member that
// keeps answering is never expired.
func TestQueriesSustainMembership(t *testing.T) {
	sim, _, q, hs, ch := setup(t, 2)
	sim.At(10, func() { hs[1].Join(ch) })
	if err := sim.Run(2000); err != nil {
		t.Fatal(err)
	}
	ms := q.Members(ch)
	if len(ms) != 1 {
		t.Fatalf("members = %v after sustained queries", ms)
	}
}

func TestJoinIdempotentAndLeaveWithoutJoin(t *testing.T) {
	sim, _, q, hs, ch := setup(t, 1)
	hs[0].Leave(ch) // no-op
	sim.At(5, func() { hs[0].Join(ch); hs[0].Join(ch) })
	if err := sim.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(q.Members(ch)) != 1 {
		t.Fatalf("members = %v, want exactly 1", q.Members(ch))
	}
	if !hs[0].Joined(ch) {
		t.Error("Joined false")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{QueryInterval: 0, MembershipTimeout: 10, UnsolicitedReports: 1},
		{QueryInterval: 10, MembershipTimeout: 10, UnsolicitedReports: 1},
		{QueryInterval: 10, MembershipTimeout: 30, UnsolicitedReports: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestQuerierOnHostPanics(t *testing.T) {
	g := lanGraph(1)
	sim := eventsim.New()
	net := netsim.New(sim, g, unicast.Compute(g))
	defer func() {
		if recover() == nil {
			t.Error("querier on a host did not panic")
		}
	}()
	AttachQuerier(net.Node(g.Hosts()[0]), DefaultConfig())
}
