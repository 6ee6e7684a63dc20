package packet_test

import (
	"bytes"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// FuzzRoundTrip pins marshal→unmarshal→marshal byte identity for the
// two variable-length control messages (Tree's target, Fusion's
// R1..Rn list): any wire encoding the decoder accepts must survive a
// decode/re-encode cycle bit-for-bit, because the live frame wire
// decodes and re-encodes a packet at every hop it crosses.
//
// The corpus is seeded from real wire bytes: a small HBH sim runs
// with a link tap and every Tree/Fusion that crossed a link is added
// as encoded, so the fuzzer starts from encodings the protocol
// actually produces rather than hand-built ones.
//
// Run with: go test -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/packet/
func FuzzRoundTrip(f *testing.F) {
	for _, raw := range linkCorpus(f) {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := packet.Unmarshal(data)
		if err != nil {
			return // rejected input: fine, as long as no panic
		}
		switch m.(type) {
		case *packet.Tree, *packet.Fusion:
		default:
			return
		}
		b1, err := packet.Marshal(m)
		if err != nil {
			t.Fatalf("accepted message failed to marshal: %v", err)
		}
		m2, err := packet.Unmarshal(b1)
		if err != nil {
			t.Fatalf("marshalled message failed to decode: %v", err)
		}
		b2, err := packet.Marshal(m2)
		if err != nil {
			t.Fatalf("decoded message failed to re-marshal: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("marshal/unmarshal/marshal not byte-identical:\n% x\n% x", b1, b2)
		}
	})
}

// linkCorpus runs a 5-router HBH line with two receivers under a link
// tap and returns the wire bytes of every Tree and Fusion message that
// crossed a link.
func linkCorpus(f testing.TB) [][]byte {
	g := topology.Line(5, true)
	sim := eventsim.New()
	net := netsim.New(sim, g, unicast.Compute(g))
	cfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(net.Node(r), cfg)
	}
	hosts := g.Hosts()
	src := core.AttachSource(net.Node(hosts[0]), addr.GroupAddr(0), cfg)

	var out [][]byte
	net.AddTap(func(_, _ topology.NodeID, msg packet.Message) {
		switch msg.(type) {
		case *packet.Tree, *packet.Fusion:
			// Marshal encodes into a fresh slice, so nothing the tap
			// keeps aliases msg past the call.
			raw, err := packet.Marshal(msg)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, raw)
		}
	})

	for i, h := range []topology.NodeID{hosts[2], hosts[4]} {
		rcv := core.AttachReceiver(net.Node(h), src.Channel(), cfg)
		sim.At(eventsim.Time(10+20*i), rcv.Join)
	}
	if err := sim.Run(8 * cfg.TreeInterval); err != nil {
		f.Fatal(err)
	}
	src.SendData([]byte("corpus"))
	// A bounded window, not RunAll: the soft-state refresh timers
	// re-arm for as long as the receivers stay joined, so the event
	// queue never drains. One more generation is plenty for the data
	// packets (and another round of Tree/Fusion traffic) to land.
	if err := sim.Run(sim.Now() + 2*cfg.TreeInterval); err != nil {
		f.Fatal(err)
	}
	if len(out) == 0 {
		f.Fatal("the run produced no Tree/Fusion messages to seed from")
	}
	return out
}
