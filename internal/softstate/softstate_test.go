package softstate

import (
	"math"
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// protos are the two parameterisations the kit runs under: everything
// a protocol tells the shared receiver about itself.
var protos = []struct {
	name      string
	proto     packet.Protocol
	other     packet.Protocol
	flagFirst bool
}{
	{"hbh", packet.ProtoHBH, packet.ProtoREUNITE, true},
	{"reunite", packet.ProtoREUNITE, packet.ProtoHBH, false},
}

// world is a two-router line with a source host and a member host.
type world struct {
	sim       *eventsim.Sim
	net       *netsim.Network
	src, host topology.NodeID
	ch        addr.Channel
}

func newWorld() *world {
	g := topology.Line(2, true)
	sim := eventsim.New()
	w := &world{sim: sim, net: netsim.New(sim, g, unicast.Compute(g)),
		src: g.Hosts()[0], host: g.Hosts()[1]}
	w.ch = addr.Channel{S: g.Node(w.src).Addr, G: addr.GroupAddr(0)}
	return w
}

func (w *world) run(t *testing.T, d eventsim.Time) {
	t.Helper()
	if err := w.sim.Run(w.sim.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverJoinRefreshLeaveRejoin: a subscription is one immediate
// first join plus one refresh per JoinInterval, silence after Leave,
// and a new first join on rejoin. The first-join flag reaches the wire
// for the flagged parameterisation only.
func TestReceiverJoinRefreshLeaveRejoin(t *testing.T) {
	for _, p := range protos {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld()
			cfg := DefaultConfig()
			var joins []packet.Join // copies: a tap sees a message only for the call
			w.net.AddTap(func(from, _ topology.NodeID, msg packet.Message) {
				if j, ok := msg.(*packet.Join); ok && from == w.host {
					joins = append(joins, *j)
				}
			})
			r := AttachReceiver(w.net.Node(w.host), w.ch, cfg, p.proto, p.flagFirst)
			if r.Joined() {
				t.Fatal("attached receiver already joined")
			}
			r.Join()
			r.Join() // idempotent
			w.run(t, 2*cfg.JoinInterval+cfg.JoinInterval/2)
			if !r.Joined() || len(joins) != 3 {
				t.Fatalf("joined=%v with %d joins after 2.5 intervals, want 3", r.Joined(), len(joins))
			}
			r.Leave()
			r.Leave() // idempotent
			w.run(t, 3*cfg.JoinInterval)
			if r.Joined() || len(joins) != 3 {
				t.Fatalf("joined=%v with %d joins after Leave, want silence", r.Joined(), len(joins))
			}
			r.Join()
			w.run(t, cfg.JoinInterval+1)
			if len(joins) != 5 {
				t.Fatalf("%d joins after rejoin + one interval, want 5", len(joins))
			}
			for i, j := range joins {
				first := i == 0 || i == 3
				if j.Proto != p.proto || j.R != r.Addr() || j.Dst != w.ch.S || j.Channel != w.ch {
					t.Errorf("join %d malformed: %v", i, j)
				}
				if want := first && p.flagFirst; j.First() != want {
					t.Errorf("join %d First() = %v, want %v", i, j.First(), want)
				}
			}
		})
	}
}

// TestSendControlZeroAlloc: a join and a tree built in the sender's
// reused values (SendJoin, SendTree) and carried across the simulated
// network to their destination allocate nothing: the transport copies
// each into the envelope it recycles.
func TestSendControlZeroAlloc(t *testing.T) {
	w := newWorld()
	host, src := w.net.Node(w.host), w.net.Node(w.src)
	var out packet.Control
	if n := testing.AllocsPerRun(100, func() {
		SendJoin(host, &out.Join, obs.Causal{}, packet.ProtoHBH, w.ch, false)
		SendTree(src, &out.Tree, obs.Causal{}, packet.ProtoHBH, w.ch, host.Addr(), false, "refresh")
		if err := w.sim.RunAll(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a join and a tree cost %v allocations end to end", n)
	}
	if st := w.net.Stats(); st.Delivered != 2*101 {
		t.Errorf("%d deliveries, want every join and tree delivered", st.Delivered)
	}
}

// TestReceiverDeliveries covers the delivery log both protocols now
// share: duplicate counting, the mtree.Member views, OnData (new
// surface for REUNITE receivers), tree consumption by protocol id, and
// ResetDeliveries.
func TestReceiverDeliveries(t *testing.T) {
	for _, p := range protos {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld()
			r := AttachReceiver(w.net.Node(w.host), w.ch, DefaultConfig(), p.proto, p.flagFirst)
			var seen []Delivery
			r.OnData = func(d Delivery) { seen = append(seen, d) }
			send := func(msg packet.Message) {
				w.net.Node(w.src).SendUnicast(msg)
				w.run(t, 10)
			}
			data := func(seq uint32) *packet.Data {
				return &packet.Data{Header: packet.Header{Type: packet.TypeData,
					Channel: w.ch, Src: w.ch.S, Dst: r.Addr()}, Seq: seq}
			}
			tree := func(proto packet.Protocol) *packet.Tree {
				return &packet.Tree{Header: packet.Header{Proto: proto, Type: packet.TypeTree,
					Channel: w.ch, Src: w.ch.S, Dst: r.Addr()}, R: r.Addr()}
			}
			send(data(1))
			firstAt := w.sim.Now()
			send(data(1))
			send(data(2))
			if len(r.Deliveries) != 3 || r.DupCount != 1 || len(seen) != 3 {
				t.Fatalf("deliveries=%d dups=%d OnData calls=%d, want 3/1/3",
					len(r.Deliveries), r.DupCount, len(seen))
			}
			if seen[2] != r.Deliveries[2] || seen[2].Seq != 2 {
				t.Errorf("OnData saw %+v, log holds %+v", seen[2], r.Deliveries[2])
			}
			if n := r.DeliveryCount(1); n != 2 {
				t.Errorf("DeliveryCount(1) = %d, want 2", n)
			}
			if at, ok := r.DeliveryAt(1); !ok || at >= firstAt {
				t.Errorf("DeliveryAt(1) = %v/%v, want the first copy's arrival (before %v)", at, ok, firstAt)
			}
			if _, ok := r.DeliveryAt(9); ok {
				t.Error("DeliveryAt reports an undelivered packet")
			}
			send(tree(p.proto))
			send(tree(p.other))
			if r.TreeMsgs != 1 {
				t.Errorf("TreeMsgs = %d, want 1 (own protocol's tree only)", r.TreeMsgs)
			}
			r.ResetDeliveries()
			send(data(1))
			if len(r.Deliveries) != 1 || r.DupCount != 0 {
				t.Errorf("after reset: deliveries=%d dups=%d, want 1/0", len(r.Deliveries), r.DupCount)
			}
		})
	}
}

func newTimer(sim *eventsim.Sim) *clock.SoftTimer {
	return clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil)
}

func TestMFTOrderAndIndex(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	addrs := []addr.Addr{10, 30, 20, 40}
	for _, a := range addrs {
		mft.Add(a, newTimer(sim))
	}
	if mft.Len() != 4 {
		t.Fatalf("Len = %d", mft.Len())
	}
	// Iteration must follow insertion order (determinism, and REUNITE's
	// dst-is-first-joiner rule).
	for i, e := range mft.Entries() {
		if e.Node != addrs[i] {
			t.Fatalf("entry %d = %v, want %v", i, e.Node, addrs[i])
		}
	}
	nodes := mft.AppendNodes(nil)
	for i, a := range addrs {
		if nodes[i] != a {
			t.Fatalf("AppendNodes(nil)[%d] = %v, want %v", i, nodes[i], a)
		}
	}
	if mft.Get(20) == nil || mft.Get(99) != nil {
		t.Error("Get broken")
	}
}

func TestMFTRemove(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	fired := false
	mft.Add(1, newTimer(sim))
	mft.Add(2, clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { fired = true }))
	mft.Add(3, newTimer(sim))
	if !mft.Remove(2) {
		t.Fatal("Remove existing returned false")
	}
	if mft.Remove(2) {
		t.Fatal("Remove absent returned true")
	}
	if mft.Len() != 2 || mft.Get(2) != nil {
		t.Error("entry not removed")
	}
	// Order of survivors preserved.
	es := mft.Entries()
	if es[0].Node != 1 || es[1].Node != 3 {
		t.Errorf("order after remove: %v, %v", es[0].Node, es[1].Node)
	}
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("removed entry's timer still fired")
	}
}

func TestMFTDuplicatePanics(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	mft.Add(1, newTimer(sim))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	mft.Add(1, newTimer(sim))
}

func TestMFTDestroyCancelsTimers(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	fired := false
	timer := clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { fired = true })
	mft.Add(1, timer)
	mft.Destroy()
	if mft.Len() != 0 || mft.Get(1) != nil {
		t.Error("table not emptied")
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("timer fired after Destroy")
	}
}

func TestMFTString(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	e := mft.Add(addr.MustParse("10.1.0.1"), newTimer(sim))
	e.Marked = true
	s := mft.String()
	if !strings.Contains(s, "10.1.0.1") || !strings.Contains(s, "(m)") {
		t.Errorf("String = %q", s)
	}
	// Stale marker.
	mft2 := NewMFT()
	e2 := mft2.Add(addr.MustParse("10.1.0.2"), newTimer(sim))
	e2.Timer.ForceStale()
	if !strings.Contains(mft2.String(), "*") {
		t.Errorf("String = %q, missing stale marker", mft2.String())
	}
}

// TestMFTVersion pins the mutation counter the iteration guards rely
// on: Add, Remove and Destroy each advance it, refreshes do not.
func TestMFTVersion(t *testing.T) {
	sim := eventsim.New()
	table := NewMFT()
	if v := table.Version(); v != 0 {
		t.Fatalf("fresh table version = %d, want 0", v)
	}
	e := table.Add(addr.RouterAddr(1), newTimer(sim))
	v1 := table.Version()
	if v1 == 0 {
		t.Errorf("Add did not advance version")
	}
	e.Timer.Refresh()
	e.Marked = true
	if table.Version() != v1 {
		t.Errorf("non-membership mutation advanced version")
	}
	table.Remove(e.Node)
	v2 := table.Version()
	if v2 == v1 {
		t.Errorf("Remove did not advance version")
	}
	table.Add(addr.RouterAddr(2), newTimer(sim))
	table.Destroy()
	if table.Version() <= v2 {
		t.Errorf("Destroy did not advance version")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{JoinInterval: 0, TreeInterval: 100, T1: 350, T2: 350},
		{JoinInterval: 100, TreeInterval: 0, T1: 350, T2: 350},
		{JoinInterval: 100, TreeInterval: 100, T1: 50, T2: 350}, // T1 < interval
		{JoinInterval: 1, TreeInterval: 1, T1: 1, T2: 10},       // T1 == interval
		{JoinInterval: 100, TreeInterval: 100, T1: 350, T2: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestDedupWindow: a sequence number is fresh once, a repeat is
// detected for as long as it is within seenDataCap of the newest number
// — however many distinct numbers came in between, the case a window
// discarded whole at the cap forgot — one further behind reads as
// fresh, the arithmetic survives the uint32 wrap, and windows are per
// channel until dropped.
func TestDedupWindow(t *testing.T) {
	var w Window
	if w.Seen(0) {
		t.Fatal("fresh window reports seq 0 seen")
	}
	if !w.Seen(0) {
		t.Fatal("repeat not detected")
	}
	// Far more than seenDataCap distinct later numbers, each fresh, each
	// followed by a repeat of one a window's span behind it.
	for seq := uint32(1); seq < 3*seenDataCap; seq++ {
		if w.Seen(seq) {
			t.Fatalf("seq %d reported seen on first arrival", seq)
		}
		if seq >= seenDataCap-1 && !w.Seen(seq-(seenDataCap-1)) {
			t.Fatalf("at seq %d: seq %d, %d behind, forgotten", seq, seq-(seenDataCap-1), seenDataCap-1)
		}
	}
	top := uint32(3*seenDataCap - 1)
	if w.Seen(top-seenDataCap) || w.Seen(top-seenDataCap) {
		t.Errorf("seq %d behind the newest remembered: beyond the window it must read as fresh every time", seenDataCap)
	}
	if !w.Seen(top) {
		t.Error("an arrival behind the window disturbed it")
	}
	// A gap inside the span keeps what is still in range, a jump of a
	// whole span keeps nothing.
	if w.Seen(top+100) || !w.Seen(top) || w.Seen(top+50) {
		t.Error("window slid over a gap wrongly")
	}
	if w.Seen(top+100+seenDataCap) || w.Seen(top+101) || !w.Seen(top+101) {
		t.Error("window jumped a whole span wrongly")
	}

	// The wrap: numbers either side of math.MaxUint32 are neighbours.
	w = Window{}
	for seq := uint32(math.MaxUint32 - 5); seq != 6; seq++ {
		if w.Seen(seq) {
			t.Fatalf("seq %d reported seen on first arrival across the wrap", seq)
		}
	}
	for seq := uint32(math.MaxUint32 - 5); seq != 6; seq++ {
		if !w.Seen(seq) {
			t.Fatalf("seq %d forgotten across the wrap", seq)
		}
	}
	if w.Seen(6) || !w.Seen(math.MaxUint32) {
		t.Error("window lost its place after the wrap")
	}

	chA := addr.Channel{S: addr.MustParse("10.9.0.1"), G: addr.GroupAddr(0)}
	chB := addr.Channel{S: addr.MustParse("10.9.0.1"), G: addr.GroupAddr(1)}
	var d Dedup
	d.Drop(chA) // the zero value has nothing to drop
	if d.Window(chA).Seen(7) || !d.Window(chA).Seen(7) {
		t.Fatal("a channel's window does not persist between lookups")
	}
	if d.Window(chB).Seen(7) {
		t.Fatal("windows leak across channels")
	}
	d.Drop(chA)
	if _, held := d[chA]; held {
		t.Error("Drop left the channel's window behind")
	}
	if d.Window(chA).Seen(7) {
		t.Error("dropped window still suppresses a replay")
	}
	if !d.Window(chB).Seen(7) {
		t.Error("Drop touched another channel's window")
	}
}
