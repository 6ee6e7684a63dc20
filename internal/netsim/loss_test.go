package netsim

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

func TestControlLossDropsControlOnly(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetLossModel(LossModel{Control: 0.9999999, RNG: rand.New(rand.NewSource(1))})

	// Control packet: dropped (with overwhelming probability).
	delivered := 0
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) { delivered++ })
	j := &packet.Join{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeJoin,
			Channel: addr.Channel{S: addr.MustParse("10.9.0.1"), G: addr.GroupAddr(0)},
			Dst:     g.Node(1).Addr,
		},
		R: addr.MustParse("10.1.0.0"),
	}
	net.Node(0).SendUnicast(j)
	// Data packet: never dropped.
	net.Node(0).SendUnicast(dataTo(g.Node(1).Addr, 1))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (data only)", delivered)
	}
	if net.Stats().LossDrops != 1 {
		t.Errorf("LossDrops = %d, want 1", net.Stats().LossDrops)
	}
}

func TestControlLossRate(t *testing.T) {
	g := topology.Line(2, false)
	net, sim := build(g)
	net.SetLossModel(LossModel{Control: 0.25, RNG: rand.New(rand.NewSource(7))})
	const n = 4000
	got := 0
	net.Node(1).SetDeliver(func(ProtoNode, packet.Message) { got++ })
	for i := 0; i < n; i++ {
		net.Node(0).SendUnicast(&packet.Tree{
			Header: packet.Header{
				Proto: packet.ProtoHBH, Type: packet.TypeTree,
				Channel: addr.Channel{S: addr.MustParse("10.9.0.1"), G: addr.GroupAddr(0)},
				Dst:     g.Node(1).Addr,
			},
			R: g.Node(1).Addr,
		})
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	rate := 1 - float64(got)/n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("observed loss rate %.3f, want ~0.25", rate)
	}
}

func TestControlLossValidation(t *testing.T) {
	g := topology.Line(2, false)
	net, _ := build(g)
	for _, p := range []float64{-0.1, 1.0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss rate %v accepted", p)
				}
			}()
			net.SetLossModel(LossModel{Control: p, RNG: rand.New(rand.NewSource(1))})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("positive loss without RNG accepted")
			}
		}()
		net.SetLossModel(LossModel{Control: 0.5})
	}()
	net.SetLossModel(LossModel{}) // zero rate needs no RNG
}
