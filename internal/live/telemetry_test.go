package live

import (
	"testing"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// collectSink retains events; it runs under the runtime's emission
// lock, so reads are safe once the runtime has stopped (or under
// ObsLocked).
type collectSink struct{ events []obs.Event }

func (c *collectSink) Emit(ev obs.Event) {
	// Msg must not be retained past the Emit call; keep the fields the
	// assertions need and classify the packet now.
	if _, isData := ev.Msg.(*packet.Data); !isData {
		ev.Seq = 0
	}
	ev.Msg = nil
	c.events = append(c.events, ev)
}

// TestLiveTelemetryOverUDP runs Figure 3 under the wall clock over
// real UDP loopback with the full telemetry pipeline attached, and
// asserts the observability tentpole's live half: wall-clock latency
// histograms fill from frame timestamps, and the causal (episode,
// step) stamp survives the wire — a data consume at a receiver reports
// the same episode as the origination send at the source, which only
// the frame could have told it.
func TestLiveTelemetryOverUDP(t *testing.T) {
	sc := topology.Fig3Scenario()
	g := sc.Graph
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Unit: 200 * time.Microsecond})

	o := obs.New(nil)
	lat := o.EnableLatency()
	o.EnableConvergence()
	rt.SetObserver(o)
	// Attached to the runtime, the tracker takes delivery delays from
	// frame timestamps only: a send and a consume of one sequence on the
	// event stream pair into no sample.
	probe := &packet.Data{Header: packet.Header{Type: packet.TypeData}, Seq: 1}
	o.Emit(obs.Event{Kind: obs.KindSend, Seq: 1, Msg: probe})
	o.Emit(obs.Event{Kind: obs.KindConsume, Seq: 1, Msg: probe, At: 5})
	if n := lat.Delivery.Count(); n != 0 {
		t.Fatalf("SetObserver left event pairing on: %d delivery samples from the event stream", n)
	}
	sink := &collectSink{}
	o.AddSink(sink)

	cfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(rt.Node(r), cfg)
	}
	src := core.AttachSource(rt.Node(sc.Source), addr.GroupAddr(0), cfg)
	rcv1 := core.AttachReceiver(rt.Node(sc.R1), src.Channel(), cfg)
	rcv2 := core.AttachReceiver(rt.Node(sc.R2), src.Channel(), cfg)

	book := make(map[topology.NodeID]string, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		book[topology.NodeID(id)] = "127.0.0.1:0"
	}
	tr, err := NewUDPTransport(rt.Hosted(), book, rt.HandleFrame)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetTransport(tr)
	rt.Start()
	defer rt.Stop()

	rt.Do(sc.R1, rcv1.Join)
	rt.Do(sc.R2, rcv2.Join)

	delivered := func() bool {
		n1, n2 := 0, 0
		rt.Do(sc.R1, func() { n1 = len(rcv1.Deliveries) })
		rt.Do(sc.R2, func() { n2 = len(rcv2.Deliveries) })
		return n1 >= 3 && n2 >= 3
	}
	deadline := time.Now().Add(10 * time.Second)
	for !delivered() {
		if time.Now().After(deadline) {
			t.Fatal("receivers starved")
		}
		rt.Do(sc.Source, func() { src.SendData([]byte("live")) })
		time.Sleep(5 * time.Millisecond)
	}

	var delCount, hopCount uint64
	var delMax float64
	rt.ObsLocked(func() {
		delCount, hopCount = lat.Delivery.Count(), lat.Hop.Count()
		delMax = lat.Delivery.Max()
	})
	if delCount == 0 {
		t.Error("no delivery-delay samples from frame timestamps")
	}
	if hopCount == 0 {
		t.Error("no hop-delay samples from frame timestamps")
	}
	if delMax <= 0 || delMax > 10 {
		t.Errorf("delivery delay max %v seconds implausible for loopback", delMax)
	}

	rt.Stop() // quiesce emission before reading the sink
	sendEp := make(map[uint32]obs.EpisodeID)
	for _, ev := range sink.events {
		if ev.Kind == obs.KindSend && ev.Seq != 0 && ev.NodeName == g.Node(sc.Source).Name {
			sendEp[ev.Seq] = ev.Episode
		}
	}
	matched := false
	for _, ev := range sink.events {
		if ev.Kind != obs.KindConsume || ev.Seq == 0 {
			continue
		}
		if ep, ok := sendEp[ev.Seq]; ok && ep != 0 && ev.Episode == ep && ev.NodeName != g.Node(sc.Source).Name {
			matched = true
			break
		}
	}
	if !matched {
		t.Error("no data consume shares its origination's episode: causal stamp lost crossing UDP")
	}
}
