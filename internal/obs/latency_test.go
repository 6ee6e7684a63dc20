package obs

import (
	"testing"

	"hbh/internal/packet"
)

func testData(seq uint32) *packet.Data {
	return &packet.Data{Header: packet.Header{Type: packet.TypeData,
		Channel: testCh, Src: testS, Dst: testR}, Seq: seq}
}

func TestLatencyDeliveryPairing(t *testing.T) {
	o := New(nil)
	lt := o.EnableLatency()
	if o.Latency() != lt || o.EnableLatency() != lt {
		t.Fatal("EnableLatency not idempotent")
	}
	d := testData(1)
	lt.Apply(Event{At: 10, Kind: KindSend, Channel: testCh, Seq: 1, Msg: d})
	lt.Apply(Event{At: 13, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 1, Msg: d})
	if lt.Delivery.Count() != 1 || lt.Delivery.Sum() != 3 {
		t.Fatalf("delivery delay: count %d sum %v, want 1 / 3", lt.Delivery.Count(), lt.Delivery.Sum())
	}
	// A second member consuming the same sequence is a second sample —
	// the send entry is retained.
	lt.Apply(Event{At: 15, Kind: KindDeliver, Node: testS, Channel: testCh, Seq: 1, Msg: d})
	if lt.Delivery.Count() != 2 || lt.Delivery.Sum() != 8 {
		t.Fatalf("second member not sampled: count %d sum %v", lt.Delivery.Count(), lt.Delivery.Sum())
	}
	// Control packets and unmatched sequences do not sample.
	lt.Apply(Event{At: 20, Kind: KindSend, Channel: testCh, Msg: testJoin()})
	lt.Apply(Event{At: 21, Kind: KindConsume, Channel: testCh, Seq: 99, Msg: testData(99)})
	if lt.Delivery.Count() != 2 {
		t.Fatalf("control or unmatched traffic sampled: count %d", lt.Delivery.Count())
	}
}

func TestLatencyDirectModeSkipsPairing(t *testing.T) {
	lt := NewLatency(NewCounters())
	lt.SetDirect(true)
	d := testData(1)
	lt.Apply(Event{At: 10, Kind: KindSend, Channel: testCh, Seq: 1, Msg: d})
	lt.Apply(Event{At: 13, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 1, Msg: d})
	if lt.Delivery.Count() != 0 {
		t.Fatal("direct mode still pairs send/consume")
	}
	// Direct feeds come from frame timestamps instead.
	lt.ObserveDelivery(0.25)
	lt.ObserveHop(0.01)
	lt.ObserveConverge(1.5)
	if lt.Delivery.Count() != 1 || lt.Hop.Count() != 1 || lt.Converge.Count() != 1 {
		t.Fatal("direct observations not recorded")
	}
}

func TestLatencyJoinFirstWindow(t *testing.T) {
	lt := NewLatency(NewCounters())
	d := testData(1)
	// Refresh joins do not open a window.
	lt.Apply(Event{At: 5, Kind: KindJoinSend, Node: testR, Channel: testCh, Detail: "refresh"})
	lt.Apply(Event{At: 6, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 1, Msg: d})
	if lt.JoinFirst.Count() != 0 {
		t.Fatal("refresh join opened a window")
	}
	// A first join samples once, at the first delivered data packet.
	lt.Apply(Event{At: 10, Kind: KindJoinSend, Node: testR, Channel: testCh, Detail: "first"})
	lt.Apply(Event{At: 11, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 2, Msg: testData(2)})
	lt.Apply(Event{At: 12, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 3, Msg: testData(3)})
	if lt.JoinFirst.Count() != 1 || lt.JoinFirst.Sum() != 1 {
		t.Fatalf("join-first: count %d sum %v, want 1 / 1", lt.JoinFirst.Count(), lt.JoinFirst.Sum())
	}
	// Another node's window is independent.
	lt.Apply(Event{At: 20, Kind: KindJoinSend, Node: testS, Channel: testCh, Detail: "first"})
	lt.Apply(Event{At: 24, Kind: KindDeliver, Node: testS, Channel: testCh, Seq: 4, Msg: testData(4)})
	if lt.JoinFirst.Count() != 2 || lt.JoinFirst.Sum() != 5 {
		t.Fatalf("second node window: count %d sum %v, want 2 / 5", lt.JoinFirst.Count(), lt.JoinFirst.Sum())
	}
}

func TestLatencySentTableEviction(t *testing.T) {
	lt := NewLatency(NewCounters())
	for i := 0; i < latSentCap+10; i++ {
		lt.Apply(Event{At: 1, Kind: KindSend, Channel: testCh, Seq: uint32(i), Msg: testData(uint32(i))})
	}
	if len(lt.sent) != latSentCap {
		t.Fatalf("sent table grew past cap: %d", len(lt.sent))
	}
	// The oldest entries were evicted; the newest still pair.
	lt.Apply(Event{At: 3, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 0, Msg: testData(0)})
	if lt.Delivery.Count() != 0 {
		t.Fatal("evicted sequence still paired")
	}
	lt.Apply(Event{At: 3, Kind: KindConsume, Node: testR, Channel: testCh, Seq: latSentCap + 9, Msg: testData(latSentCap + 9)})
	if lt.Delivery.Count() != 1 {
		t.Fatal("recent sequence lost")
	}
}

func TestLatencyHistogramsRideRegistry(t *testing.T) {
	o := New(nil)
	lt := o.EnableLatency()
	if o.Counters() == nil {
		t.Fatal("EnableLatency did not enable counters")
	}
	if o.Counters().Hist("hbh_delivery_delay") != lt.Delivery {
		t.Fatal("delivery histogram not registry-resident")
	}
	// Emit through the observer: the tracker is fed from the pipeline.
	d := testData(7)
	o.Emit(Event{At: 1, Kind: KindSend, Channel: testCh, Seq: 7, Msg: d})
	o.Emit(Event{At: 2, Kind: KindConsume, Node: testR, Channel: testCh, Seq: 7, Msg: d})
	if lt.Delivery.Count() != 1 {
		t.Fatal("observer pipeline did not feed the latency tracker")
	}
}

func TestMarkConverged(t *testing.T) {
	tr := NewConvergeTracker()
	// Untracked channel and pre-mutation probes are not samples.
	if _, newly := tr.MarkConverged(testCh); newly {
		t.Fatal("untracked channel marked converged")
	}
	tr.Apply(Event{At: 1, Kind: KindSend, Channel: testCh, Msg: testJoin()})
	if _, newly := tr.MarkConverged(testCh); newly {
		t.Fatal("channel with no mutation yielded a convergence sample")
	}

	// A burst of mutations, then a probe: took = last - first mutation.
	tr.Apply(Event{At: 10, Kind: KindTableAdd, Channel: testCh})
	tr.Apply(Event{At: 14, Kind: KindBranch, Channel: testCh})
	took, newly := tr.MarkConverged(testCh)
	if !newly || took != 4 {
		t.Fatalf("first probe: took %v newly %v, want 4 true", took, newly)
	}
	if _, newly := tr.MarkConverged(testCh); newly {
		t.Fatal("repeat probe produced a second sample")
	}
	if !tr.Channel(testCh).Converged {
		t.Fatal("converged flag not set")
	}

	// A new mutation withdraws the flag and starts a fresh burst.
	tr.Apply(Event{At: 30, Kind: KindTableRemove, Channel: testCh})
	if tr.Channel(testCh).Converged {
		t.Fatal("mutation did not withdraw convergence")
	}
	tr.Apply(Event{At: 37, Kind: KindFusionAccept, Channel: testCh})
	took, newly = tr.MarkConverged(testCh)
	if !newly || took != 7 {
		t.Fatalf("second burst: took %v newly %v, want 7 true", took, newly)
	}
}

func TestConvergedGaugeSemantics(t *testing.T) {
	// The daemon's /metrics gauge treats "never mutated" as converged:
	// a channel nobody joined yet has nothing to converge.
	tr := NewConvergeTracker()
	tr.Apply(Event{At: 1, Kind: KindSend, Channel: testCh, Msg: testJoin()})
	c := tr.Channel(testCh)
	if got := !c.MutationAny || c.Converged; !got {
		t.Fatal("mutation-free channel should read converged")
	}
	tr.Apply(Event{At: 2, Kind: KindTableAdd, Channel: testCh})
	c = tr.Channel(testCh)
	if got := !c.MutationAny || c.Converged; got {
		t.Fatal("mid-burst channel should read unconverged")
	}
	tr.MarkConverged(testCh)
	c = tr.Channel(testCh)
	if got := !c.MutationAny || c.Converged; !got {
		t.Fatal("probed channel should read converged")
	}
}
