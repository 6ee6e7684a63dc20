package netsim_test

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestProbeLeavesNoTap: a probe's link tap lives as long as the probe.
// It used to stay registered, so a session probed again and again (the
// robustness, delay-tail and convergence experiments) paid one more closure
// and one more ever-growing map on every later transmission.
func TestProbeLeavesNoTap(t *testing.T) {
	g := topology.Line(4, true)
	net := netsim.New(eventsim.New(), g, unicast.Compute(g))
	seen := 0
	net.AddTap(func(_, _ topology.NodeID, _ packet.Message) { seen++ })
	ch := addr.Channel{S: g.Node(0).Addr, G: addr.GroupAddr(0)}
	seq := uint32(0)
	send := func() uint32 {
		seq++
		net.Node(0).SendUnicast(&packet.Data{
			Header: packet.Header{Type: packet.TypeData, Channel: ch, Src: ch.S, Dst: g.Node(3).Addr},
			Seq:    seq,
		})
		return seq
	}
	before := net.NumTaps()
	for i := 0; i < 100; i++ {
		if res := mtree.Probe(net, send, nil); res.Cost != 3 {
			t.Fatalf("probe %d: cost %d over a 3-link line, want 3", i, res.Cost)
		}
	}
	if got := net.NumTaps(); got != before {
		t.Errorf("100 probes left %d taps registered, started with %d", got, before)
	}
	if seen != 300 {
		t.Errorf("the tap registered for good saw %d transmissions, want 300", seen)
	}
}

// TestWithTapNested: a tap registered while a scoped one is active
// survives it, and scoped taps nest.
func TestWithTapNested(t *testing.T) {
	g := topology.Line(2, true)
	net := netsim.New(eventsim.New(), g, unicast.Compute(g))
	nop := func(_, _ topology.NodeID, _ packet.Message) {}
	kept := 0
	net.WithTap(nop, func() {
		net.WithTap(nop, func() {
			net.AddTap(func(_, _ topology.NodeID, _ packet.Message) { kept++ })
		})
		if got := net.NumTaps(); got != 2 {
			t.Errorf("inside the outer scope: %d taps, want 2", got)
		}
	})
	if got := net.NumTaps(); got != 1 {
		t.Fatalf("after both scopes: %d taps, want the one added for good", got)
	}
	net.Node(0).SendUnicast(&packet.Data{
		Header: packet.Header{Type: packet.TypeData, Src: g.Node(0).Addr, Dst: g.Node(1).Addr},
	})
	if kept != 1 {
		t.Errorf("the surviving tap is not the one added for good: saw %d transmissions", kept)
	}
}
