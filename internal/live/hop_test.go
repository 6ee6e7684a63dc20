package live

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// These tests pin the life of a frame in the concurrent runtime: what a
// hop allocates, the order arrivals are dispatched in, who owns the
// bytes, what a hostile frame can do, and what Stop leaves behind.

// dataTo is a data packet addressed to node id of g.
func dataTo(g *topology.Graph, id topology.NodeID, seq uint32, payload string) *packet.Data {
	return &packet.Data{
		Header: packet.Header{
			Type:    packet.TypeData,
			Channel: addr.Channel{S: g.Node(0).Addr, G: addr.GroupAddr(0)},
			Src:     g.Node(0).Addr, Dst: g.Node(id).Addr,
		},
		Seq: seq, Payload: []byte(payload),
	}
}

// frameFrom frames msg as sent by from, with a full hop budget.
func frameFrom(t testing.TB, from topology.NodeID, msg packet.Message) []byte {
	t.Helper()
	f, err := appendFrame(nil, frameMeta{from: from, ttl: 32}, msg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// star is a hub (node 0) with one spoke per cost: spoke i+1 reaches the
// hub over a link of cost costs[i].
func star(costs ...int) *topology.Graph {
	g := topology.New()
	hub := g.AddNode(topology.Router, addr.RouterAddr(0), "hub")
	for i, c := range costs {
		s := g.AddNode(topology.Router, addr.RouterAddr(i+1), "spoke")
		g.AddLink(hub, s, c, c)
	}
	g.Freeze()
	return g
}

// TestLiveHopZeroAlloc: on a RealMode line over the in-process
// transport a data packet's hop — frame built, decoded into its
// envelope, queued, dispatched, forwarded — allocates nothing once the
// envelopes and buffers exist.
func TestLiveHopZeroAlloc(t *testing.T) { lineHopBudget(t, false) }

// TestLiveUDPHopZeroAlloc is TestLiveHopZeroAlloc over UDPTransport on
// loopback: the socket's read path, which hands every datagram to the
// runtime, adds nothing per hop either.
func TestLiveUDPHopZeroAlloc(t *testing.T) { lineHopBudget(t, true) }

// lineHopBudget streams data down a RealMode line, over loopback UDP or
// the in-process transport, and holds one hop to 0.1 allocations.
func lineHopBudget(t *testing.T, udp bool) {
	const nodes = 5
	batch, rounds := 100, 30
	if udp { // a batch in flight fits a socket's default receive buffer many times over: loopback loses nothing
		batch, rounds = 20, 150
	}
	g := topology.Line(nodes, false)
	g.Freeze()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 20 * time.Microsecond})
	if udp {
		book := make(map[topology.NodeID]string, nodes)
		for id := topology.NodeID(0); id < nodes; id++ {
			book[id] = "127.0.0.1:0"
		}
		tr, err := NewUDPTransport(rt.Hosted(), book, rt.HandleFrame)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetTransport(tr)
	}
	var delivered atomic.Int64
	last := topology.NodeID(nodes - 1)
	rt.Node(last).SetDeliver(func(netsim.ProtoNode, packet.Message) { delivered.Add(1) })
	rt.Start()
	defer rt.Stop()
	msg := dataTo(g, last, 0, "sixty-four bytes of payload, give or take, as the benchmark sends")
	send := func() { // one Do for the whole batch: a Do's closure is the caller's
		for i := 0; i < batch; i++ {
			rt.Node(0).SendUnicast(msg)
		}
	}
	stream := func(n int) { // a batch in flight at a time, so no stretch needs more envelopes than another
		for i := 0; i < n; i++ {
			want := delivered.Load() + int64(batch)
			rt.Do(0, send)
			for delivered.Load() < want {
				runtime.Gosched()
			}
		}
	}
	stream(3) // warm-up: envelopes, frame buffers, queue capacity
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream(rounds)
	runtime.ReadMemStats(&after)
	hops := float64(rounds * batch * (nodes - 1))
	perHop := float64(after.Mallocs-before.Mallocs) / hops
	t.Logf("%.4f allocations per hop over %.0f hops", perHop, hops)
	if perHop > 0.1 {
		t.Errorf("a live hop allocates %.3f times, budget 0.1", perHop)
	}
}

// TestLiveControlHopZeroAlloc: a converged HBH tree over the in-process
// transport, left to refresh itself with no data flowing, allocates
// nothing per control transmission — joins, trees and fusions are built
// in the engines' reused values, copied into their envelopes, framed,
// decoded into the arrival's envelope and handled, and the soft-state
// timers they refresh are re-armed in place.
func TestLiveControlHopZeroAlloc(t *testing.T) {
	sc := topology.Fig3Scenario()
	g := sc.Graph
	const unit = 20 * time.Microsecond
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: unit})
	cfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(rt.Node(r), cfg)
	}
	src := core.AttachSource(rt.Node(sc.Source), addr.GroupAddr(0), cfg)
	rcv1 := core.AttachReceiver(rt.Node(sc.R1), src.Channel(), cfg)
	rcv2 := core.AttachReceiver(rt.Node(sc.R2), src.Channel(), cfg)
	var sent [packet.TypeData + 1]atomic.Int64 // link transmissions by type
	rt.AddTap(func(_, _ topology.NodeID, msg packet.Message) {
		if ty := msg.Hdr().Type; ty <= packet.TypeData {
			sent[ty].Add(1)
		}
	})
	rt.Start()
	defer rt.Stop()
	rt.Do(sc.R1, rcv1.Join)
	rt.Do(sc.R2, rcv2.Join)
	refresh := func(intervals int) {
		time.Sleep(time.Duration(intervals) * time.Duration(cfg.JoinInterval) * unit)
	}
	refresh(40) // converged, and every envelope and buffer exists
	var before, after runtime.MemStats
	st0 := rt.Stats()
	var sent0 [len(sent)]int64
	for ty := range sent {
		sent0[ty] = sent[ty].Load()
	}
	runtime.ReadMemStats(&before)
	refresh(100)
	runtime.ReadMemStats(&after)
	st := rt.Stats().Delta(st0)
	for _, ty := range []packet.Type{packet.TypeJoin, packet.TypeTree, packet.TypeFusion} {
		if sent[ty].Load() == sent0[ty] {
			t.Fatalf("the stretch carried no %v: it is not the refresh this test prices", ty)
		}
	}
	if st.DataCopies != 0 || st.Transmissions < 500 {
		t.Fatalf("the stretch made %d transmissions, %d of data: want pure refresh, and plenty of it", st.Transmissions, st.DataCopies)
	}
	perHop := float64(after.Mallocs-before.Mallocs) / float64(st.Transmissions)
	t.Logf("%.4f allocations per control transmission over %d", perHop, st.Transmissions)
	if perHop > 0.1 {
		t.Errorf("a live control hop allocates %.3f times, budget 0.1", perHop)
	}
}

// fusionTo is a fusion from node 0 to node id of g listing targets.
func fusionTo(g *topology.Graph, id topology.NodeID, targets ...addr.Addr) *packet.Fusion {
	return &packet.Fusion{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeFusion,
			Channel: addr.Channel{S: g.Node(0).Addr, G: addr.GroupAddr(0)},
			Src:     g.Node(0).Addr, Dst: g.Node(id).Addr,
		},
		Bp: g.Node(0).Addr, Rs: targets,
	}
}

// TestFusionTargetsNeverStale: a fusion is decoded into its arrival
// envelope's storage, whose Rs keeps the capacity of the longest fusion
// it has held. A short fusion after a long one on the same node shows
// the handler, a tap and the flight recorder its own targets and none
// of the long one's, and the released envelope keeps no message.
func TestFusionTargetsNeverStale(t *testing.T) {
	g := topology.Line(3, false)
	g.Freeze()
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	o := hbhdObserver()
	rt.SetObserver(o)
	var handled, tapped []string
	var kept []*packet.Fusion // against the contract, to see the reuse happen
	rt.Node(1).AddHandler(netsim.HandlerFunc(func(_ netsim.ProtoNode, msg packet.Message, _ obs.Causal) netsim.Verdict {
		handled = append(handled, packet.Format(msg))
		kept = append(kept, msg.(*packet.Fusion))
		return netsim.Continue
	}))
	rt.AddTap(func(_, _ topology.NodeID, msg packet.Message) { tapped = append(tapped, packet.Format(msg)) })
	rt.Start()
	defer rt.Stop()
	var long []addr.Addr
	for i := 0; i < 12; i++ {
		long = append(long, addr.ReceiverAddr(i))
	}
	sent := []*packet.Fusion{
		fusionTo(g, 2, long...),
		fusionTo(g, 2, addr.ReceiverAddr(40)),
		fusionTo(g, 2),
	}
	var want []string
	for _, f := range sent {
		want = append(want, packet.Format(f))
		rt.HandleFrame(1, frameFrom(t, 0, f))
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(handled, want) {
		t.Errorf("the handler saw\n%q\nwant\n%q", handled, want)
	}
	if !slices.Equal(tapped, want) { // node 1 forwards each to node 2
		t.Errorf("the tap saw\n%q\nwant\n%q", tapped, want)
	}
	if kept[0] != kept[1] || kept[1] != kept[2] {
		t.Fatal("the fusions were not decoded into one reused envelope: this test proves nothing")
	}
	for _, id := range []topology.NodeID{1, 2} { // node 1 forwards each, node 2 decodes it again and delivers it
		lines := strings.Split(strings.TrimSpace(o.Recorder().Dump(g.Node(id).Addr)), "\n")[1:]
		ok := len(lines) == len(want)
		for i := 0; ok && i < len(lines); i++ {
			ok = strings.HasSuffix(lines[i], want[i])
		}
		if !ok {
			t.Errorf("node %d's flight recorder:\n%s\nwant the fusions\n%s", id, strings.Join(lines, "\n"), strings.Join(want, "\n"))
		}
	}
	env := rt.Node(1).Envelope() // the pool's most recent: the fusions'
	defer env.Release()
	if env.Msg() != nil || env.Data().Payload != nil || len(env.Control().Fusion.Rs) != 0 {
		t.Errorf("a released envelope keeps msg %v, payload %q, %d fusion targets", env.Msg(), env.Data().Payload, len(env.Control().Fusion.Rs))
	}
}

// recorder is a DeliverFunc that logs the sequence numbers it sees.
type recorder struct {
	mu   sync.Mutex
	seqs []uint32
}

func (r *recorder) deliver(_ netsim.ProtoNode, msg packet.Message) {
	r.mu.Lock()
	r.seqs = append(r.seqs, msg.(*packet.Data).Seq)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint32(nil), r.seqs...)
}

// TestArrivalOrder: a node dispatches arrivals in the order they are
// due, and arrivals over one link in the order they were handed over —
// so a frame over a cheap link overtakes one handed over earlier on a
// dear one, and a link never reorders.
func TestArrivalOrder(t *testing.T) {
	g := star(20, 1)
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: time.Millisecond})
	var rec recorder
	rt.Node(0).SetDeliver(rec.deliver)
	rt.Start()
	defer rt.Stop()
	const n = 200
	rt.HandleFrame(0, frameFrom(t, 1, dataTo(g, 0, 9999, "dear"))) // due in 20 ms
	for i := 0; i < n; i++ {
		rt.HandleFrame(0, frameFrom(t, 2, dataTo(g, 0, uint32(i), "cheap"))) // due in 1 ms
	}
	waitUntil(t, "every arrival", 5*time.Second, func() bool { return len(rec.snapshot()) == n+1 })
	got := rec.snapshot()
	for i := 0; i < n; i++ {
		if got[i] != uint32(i) {
			t.Fatalf("the cheap link's frames arrived as %v..., want 0..%d in order", got[:i+1], n-1)
		}
	}
	if got[n] != 9999 {
		t.Errorf("the dear link's frame arrived at position %d, want last", n)
	}
}

// TestDoNotStarvedByDueBacklog: a Do posted while a node has a long
// backlog of arrivals already due runs after a bounded number of them,
// not after all.
func TestDoNotStarvedByDueBacklog(t *testing.T) {
	g := star(1)
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: time.Microsecond})
	var dispatched atomic.Int64
	rt.Node(0).SetDeliver(func(netsim.ProtoNode, packet.Message) {
		dispatched.Add(1)
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
	})
	const backlog = 5000 // 100 ms of dispatching, all of it due before Start
	frame := frameFrom(t, 1, dataTo(g, 0, 0, "x"))
	for i := 0; i < backlog; i++ {
		rt.HandleFrame(0, frame)
	}
	time.Sleep(time.Millisecond)
	rt.Start()
	defer rt.Stop()
	waitUntil(t, "the node to start on its backlog", 5*time.Second, func() bool { return dispatched.Load() > 0 })
	var sawAtDo int64
	rt.Do(0, func() { sawAtDo = dispatched.Load() })
	if sawAtDo >= backlog {
		t.Fatalf("the Do ran after all %d due arrivals", backlog)
	}
	t.Logf("the Do ran after %d of %d due arrivals", sawAtDo, backlog)
	waitUntil(t, "the backlog to drain", 10*time.Second, func() bool { return dispatched.Load() == backlog })
}

// TestCloneSurvivesEnvelopeReuse: a dispatched data packet lives in its
// arrival envelope, which the next packet reuses. A packet.Clone taken
// during the dispatch is the receiver's own; the message itself is not.
func TestCloneSurvivesEnvelopeReuse(t *testing.T) {
	g := topology.Line(2, false)
	g.Freeze()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 50 * time.Microsecond})
	var mu sync.Mutex
	var clones []*packet.Data
	var kept *packet.Data // against the contract, to see the reuse happen
	rt.Node(1).SetDeliver(func(_ netsim.ProtoNode, msg packet.Message) {
		mu.Lock()
		defer mu.Unlock()
		if kept == nil {
			kept = msg.(*packet.Data)
		}
		clones = append(clones, packet.Clone(msg).(*packet.Data))
	})
	rt.Start()
	payloads := []string{"the first payload", "a second, longer payload", "third"}
	for i, p := range payloads {
		msg := dataTo(g, 1, uint32(i), p)
		rt.Do(0, func() { rt.Node(0).SendUnicast(msg) })
		waitUntil(t, "the delivery", 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(clones) == i+1
		})
	}
	rt.Stop()
	for i, p := range payloads {
		if c := clones[i]; c.Seq != uint32(i) || string(c.Payload) != p {
			t.Errorf("clone %d = seq %d %q, want seq %d %q", i, c.Seq, c.Payload, i, p)
		}
	}
	if kept.Seq != uint32(len(payloads)-1) {
		t.Errorf("the kept message still reads seq %d: the envelope was not reused and this test proves nothing", kept.Seq)
	}
}

// TestHostileSenderRejected: the frame's sender field is the peer's
// word. A sender outside the graph used to panic the daemon in
// Graph.Cost; one inside it but not adjacent was accepted at link cost
// zero, that is with no delay at all. Both are refused and counted.
func TestHostileSenderRejected(t *testing.T) {
	g := topology.Line(3, false)
	g.Freeze()
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	rt.Start()
	defer rt.Stop()
	msg := dataTo(g, 0, 1, "x")
	for _, from := range []topology.NodeID{0x7fffffff, 2, 0} { // out of range, not adjacent, itself
		rt.HandleFrame(0, frameFrom(t, from, msg))
	}
	f := frameFrom(t, 1, msg)
	f[0] = 0xff // the sender's top byte: negative where NodeID is 32 bits
	rt.HandleFrame(0, f)
	if st := rt.Stats(); st.CodecDrops != 4 || sim.Pending() != 0 {
		t.Fatalf("four hostile senders: CodecDrops=%d, %d arrivals scheduled; want 4 and 0", st.CodecDrops, sim.Pending())
	}
	rt.HandleFrame(0, frameFrom(t, 1, msg))
	if st := rt.Stats(); st.CodecDrops != 4 || sim.Pending() != 1 {
		t.Fatalf("a neighbour's frame: CodecDrops=%d, %d arrivals scheduled; want 4 and 1", st.CodecDrops, sim.Pending())
	}
}

// TestHopLimitMustFitTheFrame: the hop budget travels in one byte, so a
// larger limit would wrap silently on the first hop.
func TestHopLimitMustFitTheFrame(t *testing.T) {
	g := topology.Line(2, false)
	g.Freeze()
	New(Config{Graph: g, Routing: unicast.Compute(g), Sim: eventsim.New(), HopLimit: 255})
	defer func() {
		if recover() == nil {
			t.Error("New accepted a hop limit of 256")
		}
	}()
	New(Config{Graph: g, Routing: unicast.Compute(g), Sim: eventsim.New(), HopLimit: 256})
}

// TestStopReleasesTimersAndGoroutines: Stop with arrivals in flight and
// soft-state timers armed leaves no goroutine and no runtime timer
// behind — the goroutine count is back where it was before Start, and
// nothing is dispatched afterwards.
func TestStopReleasesTimersAndGoroutines(t *testing.T) {
	sc := topology.Fig3Scenario()
	g := sc.Graph
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 200 * time.Microsecond})
	cfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(rt.Node(r), cfg)
	}
	src := core.AttachSource(rt.Node(sc.Source), addr.GroupAddr(0), cfg)
	rcv1 := core.AttachReceiver(rt.Node(sc.R1), src.Channel(), cfg)
	rcv2 := core.AttachReceiver(rt.Node(sc.R2), src.Channel(), cfg)
	var events atomic.Int64 // every packet put on a link and every timer tick
	rt.AddTap(func(_, _ topology.NodeID, _ packet.Message) { events.Add(1) })
	before := runtime.NumGoroutine()
	rt.Start()
	rt.Do(sc.R1, rcv1.Join)
	rt.Do(sc.R2, rcv2.Join)
	waitUntil(t, "data to reach both receivers", 10*time.Second, func() bool {
		rt.Do(sc.Source, func() { src.SendData([]byte("stop")) })
		n1, n2 := 0, 0
		rt.Do(sc.R1, func() { n1 = len(rcv1.Deliveries) })
		rt.Do(sc.R2, func() { n2 = len(rcv2.Deliveries) })
		return n1 > 0 && n2 > 0
	})
	for i := 0; i < 50; i++ { // arrivals in flight when Stop lands
		rt.Do(sc.Source, func() { src.SendData([]byte("in flight")) })
	}
	for _, id := range g.Routers() { // and a timer of the test's own on every router
		nd := rt.Node(id)
		rt.Do(id, func() { nd.Clock().After(5, func() { events.Add(1) }) })
	}
	rt.Stop()
	at := events.Load()
	waitUntil(t, "the node goroutines to exit", 5*time.Second, func() bool { return runtime.NumGoroutine() <= before })
	time.Sleep(50 * time.Millisecond) // 250 units: every timer and arrival queued at Stop is long due
	if now := events.Load(); now != at {
		t.Errorf("%d events after Stop returned", now-at)
	}
	done := make(chan struct{})
	go func() { rt.Do(sc.Source, func() { t.Error("a Do ran after Stop") }); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a Do after Stop hangs")
	}
}

// TestFrameBuffersAreNotRetained: the no-retention rule from both ends.
// A transport may reuse the bytes it handed to HandleFrame as soon as
// that returns, and a sender's frame is its own again when Send does.
func TestFrameBuffersAreNotRetained(t *testing.T) {
	g := topology.Line(2, false)
	g.Freeze()
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	var got []string
	rt.Node(1).SetDeliver(func(_ netsim.ProtoNode, msg packet.Message) {
		got = append(got, string(msg.(*packet.Data).Payload))
	})
	var sent [][]byte
	rt.SetTransport(sendRecorder{&sent, rt.HandleFrame})
	rt.Start()
	defer rt.Stop()
	buf := make([]byte, 0, 256) // one receive buffer, as UDPTransport.readLoop has
	for _, p := range []string{"alpha", "bravo"} {
		buf = append(buf[:0], frameFrom(t, 0, dataTo(g, 1, 0, p))...)
		rt.HandleFrame(1, buf)
		for i := range buf {
			buf[i] = 0xee
		}
	}
	rt.Node(0).SendUnicast(dataTo(g, 1, 0, "charlie"))
	rt.Node(0).SendUnicast(dataTo(g, 1, 0, "delta"))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "bravo", "charlie", "delta"}; !slices.Equal(got, want) {
		t.Errorf("delivered %q, want %q", got, want)
	}
	if len(sent) != 2 || &sent[0][0] != &sent[1][0] {
		t.Error("transmit did not build both frames in the node's one buffer")
	}
}

// sendRecorder is an in-process transport that also keeps the slice
// header of every frame it was given (not the bytes: those are the
// sender's again once Send returns).
type sendRecorder struct {
	sent    *[][]byte
	deliver DeliverFunc
}

func (s sendRecorder) Send(from, to topology.NodeID, frame []byte) error {
	*s.sent = append(*s.sent, frame)
	s.deliver(to, frame)
	return nil
}
func (sendRecorder) Close() error { return nil }

// validFrames is one well-formed frame per packet type, from node 0 to
// its neighbour node 1.
func validFrames(t testing.TB, g *topology.Graph) [][]byte {
	ch := addr.Channel{S: g.Node(0).Addr, G: addr.GroupAddr(0)}
	h := func(ty packet.Type, p packet.Protocol) packet.Header {
		return packet.Header{Proto: p, Type: ty, Channel: ch, Src: g.Node(0).Addr, Dst: g.Node(2).Addr}
	}
	msgs := []packet.Message{
		&packet.Join{Header: h(packet.TypeJoin, packet.ProtoHBH), R: g.Node(2).Addr},
		&packet.Tree{Header: h(packet.TypeTree, packet.ProtoHBH), R: g.Node(2).Addr},
		&packet.Fusion{Header: h(packet.TypeFusion, packet.ProtoHBH), Bp: g.Node(1).Addr, Rs: []addr.Addr{g.Node(2).Addr, g.Node(0).Addr}},
		&packet.Data{Header: h(packet.TypeData, packet.ProtoNone), Seq: 7, Payload: []byte("payload")},
		&packet.Query{Header: h(packet.TypeQuery, packet.ProtoNone), General: true},
		&packet.Report{Header: h(packet.TypeReport, packet.ProtoNone)},
	}
	var out [][]byte
	for _, m := range msgs {
		f, err := appendFrame(nil, frameMeta{
			from: 0, ttl: 8, cause: obs.Causal{Episode: 3, Step: 9}, origAt: 1, hopAt: 2,
		}, m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// FuzzHandleFrame throws arbitrary datagrams at the runtime's receive
// path: it never panics, and every input either becomes exactly one
// arrival or is counted in CodecDrops — nothing vanishes, nothing
// arrives twice. Whatever was accepted is then dispatched and routed to
// the end of its life.
//
// Run with: go test -fuzz=FuzzHandleFrame -fuzztime=30s -run '^$' ./internal/live/
func FuzzHandleFrame(f *testing.F) {
	g := topology.Line(4, false)
	g.Freeze()
	valid := validFrames(f, g)
	for _, fr := range valid {
		f.Add(fr)
	}
	// A long fusion, then short ones, decoded into the same envelope.
	var long []addr.Addr
	for i := 0; i < 40; i++ {
		long = append(long, addr.ReceiverAddr(i))
	}
	for _, rs := range [][]addr.Addr{long, long[:1], nil} {
		f.Add(frameFrom(f, 0, fusionTo(g, 2, rs...)))
	}
	data := valid[3]
	for n := 0; n < len(data); n++ {
		f.Add(data[:n])
	}
	bad := bytes.Clone(data)
	bad[frameOverhead+23] ^= 0x5a // the packet's checksum
	f.Add(bad)
	for _, from := range []uint32{0x7fffffff, 3} { // outside the graph; inside it, but no neighbour of node 1
		hostile := bytes.Clone(data)
		binary.BigEndian.PutUint32(hostile, from)
		f.Add(hostile)
	}

	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	var seen []string // what node 1's handler saw of each arrival
	rt.Node(1).AddHandler(netsim.HandlerFunc(func(_ netsim.ProtoNode, msg packet.Message, _ obs.Causal) netsim.Verdict {
		seen = append(seen, packet.Format(msg))
		return netsim.Continue
	}))
	rt.Start()
	f.Fuzz(func(t *testing.T, frame []byte) {
		drops, pending := rt.Stats().CodecDrops, sim.Pending()
		rt.HandleFrame(1, frame)
		arrived, dropped := sim.Pending()-pending, rt.Stats().CodecDrops-drops
		if arrived+dropped != 1 || arrived < 0 || dropped < 0 {
			t.Fatalf("one frame became %d arrivals and %d codec drops", arrived, dropped)
		}
		seen = seen[:0]
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
		if arrived == 1 { // the handler sees the packet framed, nothing left over from an earlier one
			_, msg, err := decodeFrame(frame, nil, nil)
			if err != nil {
				t.Fatalf("an accepted frame does not decode on its own: %v", err)
			}
			if want := packet.Format(msg); len(seen) == 0 || seen[0] != want {
				t.Fatalf("node 1's handler saw %q, the frame holds %q", seen, want)
			}
		}
	})
}
