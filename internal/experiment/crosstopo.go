package experiment

// CrossTopology runs the A8 robustness check: the four protocols at a
// fixed group size (8 receivers) across four different backbones — the
// paper's two topologies plus the classic NSFNET and Abilene research
// backbones. If the paper's orderings (HBH ≈ PIM-SS cheapest, REUNITE
// expensive; HBH lowest delay) hold on all of them, they are not
// artefacts of one reconstructed wiring.
//
// The x axis indexes the topology: 0=isp 1=nsfnet 2=abilene
// 3=random50.
func CrossTopology(runs int, seed int64) (cost, delay *Figure) {
	topos := []Topo{TopoISP, TopoNSFNET, TopoAbilene, TopoRandom50}
	title := "protocols at 8 receivers across backbones (0=isp 1=nsfnet 2=abilene 3=random50)"
	cost, delay = sweep([]int{0, 1, 2, 3}, AllPaperProtocols(), runs, seed, func(xi int, rc *RunConfig) {
		rc.Topo, rc.Receivers = topos[xi], 8
	})
	cost.ID, cost.Title, cost.XLabel = "A8-cost", "Cross-topology tree cost: "+title, "Topology"
	delay.ID, delay.Title, delay.XLabel = "A8-delay", "Cross-topology receiver delay: "+title, "Topology"
	return cost, delay
}
