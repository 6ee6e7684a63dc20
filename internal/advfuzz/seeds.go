package advfuzz

// DefaultSeeds is FuzzScenario's seed corpus: one genome per adversity
// dimension per protocol, plus kitchen-sink combinations, alternate
// substrates and many-channel contention. Every go test replays them
// (FuzzScenario/seed#0 .. seed#15, in this order).
func DefaultSeeds() []Genome {
	return []Genome{
		// Single-dimension probes, HBH.
		{Protocol: 0, Receivers: 6, ChurnRate: 2, ChurnAmp: 2, Window: 16, Seed: 1},
		{Protocol: 0, Receivers: 6, LossPct: 15, Window: 16, Seed: 2},
		{Protocol: 0, Receivers: 5, BurstPct: 4, BurstLen: 5, DupPct: 10, Window: 16, Seed: 3},
		{Protocol: 0, Receivers: 6, Groups: 2, GroupSize: 3, Window: 20, Seed: 4},
		// Single-dimension probes, REUNITE.
		{Protocol: 1, Receivers: 6, ChurnRate: 2, ChurnAmp: 2, Window: 16, Seed: 5},
		{Protocol: 1, Receivers: 6, LossPct: 15, Jitter: 8, Window: 16, Seed: 6},
		{Protocol: 1, Receivers: 5, Groups: 2, GroupSize: 2, Leaves: 2, Window: 20, Seed: 7},
		// Kitchen sinks: everything on at once.
		{Protocol: 0, Receivers: 8, ChurnRate: 4, ChurnAmp: 3, LossPct: 20,
			BurstPct: 3, BurstLen: 4, Jitter: 10, DupPct: 8, Groups: 2, GroupSize: 2,
			Leaves: 2, Window: 24, Seed: 8},
		{Protocol: 1, Receivers: 8, ChurnRate: 4, ChurnAmp: 3, LossPct: 20,
			BurstPct: 3, BurstLen: 4, Jitter: 10, DupPct: 8, Groups: 2, GroupSize: 2,
			Leaves: 2, Window: 24, Seed: 9},
		// Alternate substrates.
		{Topo: 1, Protocol: 0, Receivers: 5, ChurnRate: 3, LossPct: 10, Window: 16, Seed: 10},
		{Topo: 2, Protocol: 1, Receivers: 4, ChurnRate: 3, LossPct: 10, Window: 16, Seed: 11},
		// Power-law families at bounded n — these force the lazy routing
		// substrate with a tiny LRU, so churn and SRLG cuts constantly
		// evict and recompute per-source rows mid-protocol.
		{Topo: 3, Protocol: 0, Receivers: 6, ChurnRate: 3, ChurnAmp: 2, Window: 16, Seed: 12},
		{Topo: 4, Protocol: 0, Receivers: 6, Groups: 2, GroupSize: 2, LossPct: 10, Window: 20, Seed: 13},
		{Topo: 5, Protocol: 1, Receivers: 6, ChurnRate: 2, Groups: 1, GroupSize: 2, Leaves: 1,
			Window: 20, Seed: 14},
		// Many-channel contention: background channels of the same
		// protocol share the routers and the adversary with the measured
		// one. The BA entry also forces lazy routing, so four sources'
		// worth of rows fight over the 8-slot per-source LRU under churn.
		{Protocol: 0, Receivers: 6, ChurnRate: 2, ChurnAmp: 2, LossPct: 10, Channels: 3,
			Window: 20, Seed: 15},
		{Topo: 4, Protocol: 1, Receivers: 5, Channels: 3, Groups: 1, GroupSize: 2, ChurnRate: 2,
			Window: 20, Seed: 16},
	}
}
