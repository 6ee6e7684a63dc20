package live

import (
	"bytes"
	"errors"
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

func TestFrameRoundTrip(t *testing.T) {
	msg := &packet.Data{
		Header: packet.Header{
			Type: packet.TypeData,
			Channel: addr.Channel{
				S: addr.ReceiverAddr(0), G: addr.GroupAddr(0),
			},
			Dst: addr.RouterAddr(3),
		},
		Seq:     42,
		Payload: []byte("payload"),
	}
	wire, err := packet.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	meta := frameMeta{
		from: 7, ttl: 31,
		cause:  obs.Causal{Episode: 1<<40 + 3, Step: 1<<40 + 9},
		origAt: 1_700_000_000_123_456_789, hopAt: 1_700_000_000_123_999_999,
	}
	f, err := appendFrame(nil, meta, msg)
	if err != nil {
		t.Fatal(err)
	}
	fm, got, err := decodeFrame(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fm.from != 7 || fm.ttl != 31 {
		t.Errorf("frame header = (%d, %d), want (7, 31)", fm.from, fm.ttl)
	}
	if fm.cause != meta.cause {
		t.Errorf("causal stamp = %+v, want %+v", fm.cause, meta.cause)
	}
	if fm.origAt != meta.origAt || fm.hopAt != meta.hopAt {
		t.Errorf("timestamps = (%d, %d), want (%d, %d)", fm.origAt, fm.hopAt, meta.origAt, meta.hopAt)
	}
	gw, err := packet.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gw, wire) {
		t.Error("packet did not survive the frame round trip")
	}
	if _, _, err := decodeFrame(f[:3], nil, nil); err == nil {
		t.Error("short frame decoded without error")
	}
	if _, _, err := decodeFrame(append(f[:frameOverhead:frameOverhead], 0xff), nil, nil); err == nil {
		t.Error("garbage packet decoded without error")
	}
}

// waitUntil polls cond (safely, via fn the caller makes thread-safe)
// until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// realModeFig3 runs the Figure-3 scenario under the wall clock on the
// given transport (nil = default in-process channel transport) and
// asserts both receivers get every packet.
func realModeFig3(t *testing.T, mkTrans func(rt *Runtime) Transport) {
	t.Helper()
	sc := topology.Fig3Scenario()
	g := sc.Graph
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 200 * time.Microsecond})
	cfg := core.DefaultConfig()
	var routers []*core.Router
	for _, r := range g.Routers() {
		routers = append(routers, core.AttachRouter(rt.Node(r), cfg))
	}
	src := core.AttachSource(rt.Node(sc.Source), addr.GroupAddr(0), cfg)
	rcv1 := core.AttachReceiver(rt.Node(sc.R1), src.Channel(), cfg)
	rcv2 := core.AttachReceiver(rt.Node(sc.R2), src.Channel(), cfg)
	if mkTrans != nil {
		rt.SetTransport(mkTrans(rt))
	}
	rt.Start()
	defer rt.Stop()

	rt.Do(sc.R1, rcv1.Join)
	rt.Do(sc.R2, rcv2.Join)

	// Wait until both receivers are on the tree: each has a delivery
	// path, observable as a successful probe send.
	const sends = 5
	delivered := func() bool {
		n1, n2 := 0, 0
		rt.Do(sc.R1, func() { n1 = len(rcv1.Deliveries) })
		rt.Do(sc.R2, func() { n2 = len(rcv2.Deliveries) })
		return n1 >= sends && n2 >= sends
	}
	// Send data periodically until both receivers have heard enough;
	// early packets may race the join propagation, so keep counting
	// distinct sends, not sequence numbers.
	deadline := time.Now().Add(10 * time.Second)
	sent := 0
	for !delivered() {
		if time.Now().After(deadline) {
			t.Fatalf("receivers starved: sent %d, deliveries r1+r2 short", sent)
		}
		rt.Do(sc.Source, func() { src.SendData([]byte("live")) })
		sent++
		time.Sleep(5 * time.Millisecond)
	}
	st := rt.Stats()
	// HBH receivers claim data in their handler, so traffic shows up
	// as consumption, not local delivery.
	if st.DataConsumed == 0 || st.Transmissions == 0 {
		t.Errorf("stats = %+v, want nonzero traffic", st)
	}
}

func TestRealModeFig3ChanTransport(t *testing.T) {
	realModeFig3(t, nil)
}

func TestRealModeFig3UDPLoopback(t *testing.T) {
	realModeFig3(t, func(rt *Runtime) Transport {
		book := make(map[topology.NodeID]string, rt.Topology().NumNodes())
		for id := 0; id < rt.Topology().NumNodes(); id++ {
			book[topology.NodeID(id)] = "127.0.0.1:0"
		}
		tr, err := NewUDPTransport(rt.Hosted(), book, rt.HandleFrame)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})
}

// TestQuiesceSeesConsistentCut pins that Quiesce really stops the
// world: a counter incremented on many node goroutines never moves
// while a quiesced reader holds the world.
func TestQuiesceSeesConsistentCut(t *testing.T) {
	g := topology.Line(8, false)
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 100 * time.Microsecond})
	rt.Start()
	defer rt.Stop()
	stop := make(chan struct{})
	bump := make(chan struct{}, 64)
	var n atomic.Int64
	var tick func(id topology.NodeID)
	tick = func(id topology.NodeID) {
		select {
		case <-stop:
			return
		default:
		}
		n.Add(1)
		select {
		case bump <- struct{}{}:
		default:
		}
		rt.Node(id).Clock().After(0.1, func() { tick(id) })
	}
	for id := 0; id < g.NumNodes(); id++ {
		id := topology.NodeID(id)
		rt.Do(id, func() { tick(id) })
	}
	<-bump
	for i := 0; i < 20; i++ {
		rt.Quiesce(func() {
			before := n.Load()
			time.Sleep(500 * time.Microsecond)
			if n.Load() != before {
				t.Fatal("counter moved during a quiesced cut")
			}
		})
	}
	close(stop)
}

// TestRuntimeStatsUnderLoad pins where the counters live: on each
// node's shard of the one ladder, written in the step's hold of the
// emission lock. A RealMode stream of data and control packets runs
// while another goroutine polls Stats (under -race this is the proof
// the poll is safe); once the runtime has stopped, the link counters
// equal what the link tap saw, and one garbage frame counted once.
func TestRuntimeStatsUnderLoad(t *testing.T) {
	const nodes, rounds, batch = 5, 40, 20
	g := topology.Line(nodes, false)
	g.Freeze()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 20 * time.Microsecond})
	last := topology.NodeID(nodes - 1)
	var delivered atomic.Int64
	rt.Node(last).SetDeliver(func(netsim.ProtoNode, packet.Message) { delivered.Add(1) })
	var tapped, tappedData int // the tap runs under the emission lock
	rt.AddTap(func(_, _ topology.NodeID, msg packet.Message) {
		tapped++
		if _, ok := msg.(*packet.Data); ok {
			tappedData++
		}
	})
	rt.Start()

	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n, prev := 0, 0
		for {
			select {
			case <-stop:
				polled <- n
				return
			default:
			}
			st := rt.Stats()
			if st.Transmissions < prev {
				t.Errorf("Transmissions went back from %d to %d", prev, st.Transmissions)
			}
			prev = st.Transmissions
			n++
		}
	}()
	data := dataTo(g, last, 0, "load")
	for i := 0; i < rounds; i++ {
		want := delivered.Load() + 2*batch
		rt.Do(0, func() {
			for j := 0; j < batch; j++ {
				rt.Node(0).SendUnicast(data)
				rt.Node(0).SendUnicast(&packet.Join{
					Header: packet.Header{Proto: packet.ProtoHBH, Type: packet.TypeJoin, Dst: g.Node(last).Addr},
					R:      g.Node(0).Addr,
				})
			}
		})
		if i == rounds/2 {
			rt.HandleFrame(2, []byte("not a frame"))
		}
		waitUntil(t, "the round's deliveries", 5*time.Second, func() bool { return delivered.Load() >= want })
	}
	close(stop)
	if n := <-polled; n == 0 {
		t.Error("the poller never read Stats")
	}
	rt.Stop()

	st := rt.Stats()
	if st.Transmissions != tapped || st.DataCopies != tappedData {
		t.Errorf("Transmissions=%d DataCopies=%d, the tap saw %d frames, %d of them data",
			st.Transmissions, st.DataCopies, tapped, tappedData)
	}
	if hops := 2 * rounds * batch * (nodes - 1); tapped != hops {
		t.Errorf("the tap saw %d frames, want %d", tapped, hops)
	}
	if st.CodecDrops != 1 {
		t.Errorf("one garbage frame: CodecDrops=%d", st.CodecDrops)
	}
}

// refusingTransport refuses every frame, as a closed socket or an
// address-book miss would.
type refusingTransport struct{}

func (refusingTransport) Send(from, to topology.NodeID, frame []byte) error {
	return errors.New("refused")
}
func (refusingTransport) Close() error { return nil }

// TestTransmitCountsSendErrors: a frame the transport refuses is lost,
// but not silently — Stats.SendErrors counts it.
func TestTransmitCountsSendErrors(t *testing.T) {
	g := topology.Line(2, false)
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: eventsim.New()})
	rt.SetTransport(refusingTransport{})
	rt.Start()
	defer rt.Stop()
	msg := &packet.Data{Header: packet.Header{Type: packet.TypeData, Dst: g.Node(1).Addr}}
	rt.Node(0).SendUnicast(msg)
	rt.Node(0).SendDirect(obs.Causal{}, 1, msg)
	if st := rt.Stats(); st.SendErrors != 2 || st.Transmissions != 2 {
		t.Fatalf("two refused frames: SendErrors=%d Transmissions=%d, want 2 and 2", st.SendErrors, st.Transmissions)
	}
}
