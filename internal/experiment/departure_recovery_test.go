package experiment

import (
	"testing"

	"hbh/internal/mtree"
)

// TestDepartureRecovery: the stability experiment's `disrupted` column
// counts remaining members that miss a probe sent right after the
// departure settling window. This test pins down that the disruption
// is TRANSIENT: with retry probes every few intervals, every remaining
// member is served again shortly after, for both protocols.
func TestDepartureRecovery(t *testing.T) {
	for _, proto := range []Protocol{HBH, REUNITE} {
		recovered, total := 0, 0
		for run := 0; run < 15; run++ {
			seed := int64(100 + run*7919)
			p := drawPoint(TopoISP, seed, 8, paperCosts)
			s := p.session(RunConfig{Topo: TopoISP, Protocol: proto, Receivers: 8, Seed: seed})
			s.settle(defaultConvergeIntervals)
			leaver := p.rng.Intn(len(s.members))
			s.rcvs[leaver].Leave()
			if err := s.sim.Run(s.sim.Now() + s.departureWindow()); err != nil {
				t.Fatal(err)
			}
			// Retry-probe the remaining members until served.
			remaining := s.MembersWithout(leaver)
			total++
			for attempt := 0; attempt < 5; attempt++ {
				if res := mtree.Probe(s.net, s.send, remaining); len(res.Missing) == 0 {
					recovered++
					break
				}
				if err := s.sim.Run(s.sim.Now() + 8*s.interval); err != nil {
					t.Fatal(err)
				}
			}
		}
		if recovered != total {
			t.Errorf("%s: only %d/%d departures recovered full delivery", proto, recovered, total)
		}
	}
}
