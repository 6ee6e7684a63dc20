// Package advfuzz is the adversarial scenario fuzzer: a compact
// scenario genome (topology, protocol, churn, control-plane adversary,
// correlated failures, membership churn) that any byte string decodes
// to, and the native fuzz target FuzzScenario, which runs each input
// through the experiment package's adversarial engine with the runtime
// invariant checker attached as the oracle. Go's fuzzing engine does
// the mutation, coverage and minimisation; a failing input lands in
// testdata/fuzz/FuzzScenario and replays on every go test.
package advfuzz

import (
	"fmt"
	"sort"
	"strings"

	"hbh/internal/eventsim"
	"hbh/internal/experiment"
)

// fuzzTopos are the substrates the fuzzer explores: the three catalog
// backbones, then the power-law families at bounded n (Waxman,
// Barabási–Albert, transit-stub — 40-48 routers, so iteration stays
// fast). The 50-node random topology is deliberately absent: the
// power-law entries already cover "bigger than a backbone", and the
// invariants are size-independent. Genomes on a power-law family run
// with the lazy routing substrate forced on (see Spec), so the bounded
// CI campaign probes the per-source eviction/invalidation path that
// only large graphs would otherwise select.
var fuzzTopos = []experiment.Topo{
	experiment.TopoISP, experiment.TopoNSFNET, experiment.TopoAbilene,
	experiment.TopoWaxman40, experiment.TopoBA48, experiment.TopoTransitStub44,
}

// fuzzCatalogTopos counts the leading catalog entries of fuzzTopos;
// indices at or past it are the power-law families that force lazy
// routing.
const fuzzCatalogTopos = 3

// fuzzProtocols are the protocols under fuzz: the two soft-state
// cascades. The centrally installed PIM baselines have no protocol
// machinery for an adversary to confuse.
var fuzzProtocols = []experiment.Protocol{experiment.HBH, experiment.REUNITE}

// Genome is the compact scenario description the fuzzer mutates. All
// knobs are single bytes so any byte string decodes to a valid genome
// (see DecodeBytes); Normalize folds every field into its legal range.
type Genome struct {
	// Topo indexes fuzzTopos; Protocol indexes fuzzProtocols.
	Topo     uint8
	Protocol uint8
	// Receivers is the group size, 1..8.
	Receivers uint8
	// ChurnRate is link-cost churn intensity in ticks per two refresh
	// intervals (0 = off, max 8 = a tick every quarter interval);
	// ChurnAmp the random-walk step bound, 1..5.
	ChurnRate uint8
	ChurnAmp  uint8
	// LossPct is the adversary's uniform control-loss percentage
	// (0..40); BurstPct the burst-start percentage (0..10) with bursts
	// of BurstLen (1..8) packets; Jitter the per-hop delay jitter bound
	// in time units (0..20, enough to reorder control packets across a
	// refresh boundary); DupPct the duplication percentage (0..20).
	LossPct  uint8
	BurstPct uint8
	BurstLen uint8
	Jitter   uint8
	DupPct   uint8
	// Groups is the number of correlated (SRLG) multi-link cuts inside
	// the window (0..4) of GroupSize links each (1..4).
	Groups    uint8
	GroupSize uint8
	// Leaves is how many members leave and later rejoin mid-window
	// (0..3).
	Leaves uint8
	// Window is the adversity window length in refresh intervals
	// (8..30).
	Window uint8
	// Channels is how many extra background channels share the
	// substrate (0..3): same protocol, own sources and members, never
	// probed — their control and data traffic rides the same adversary
	// and contends for the same routers and (on the power-law
	// families) the same tiny lazy-routing LRU as the measured
	// channel. The many-channel dimension of the scenario space.
	Channels uint8
	// Skew is the timer-skew percentage (0..30): receivers' refresh
	// clocks run apart by up to this fraction, the live-runtime
	// dimension (unsynchronized wall clocks) folded back into the
	// deterministic scenario space. Encoded after the seed (byte
	// offset 23) so every pre-skew corpus input decodes unchanged.
	Skew uint8
	// Seed drives every random draw of the run.
	Seed int64
}

// fold maps v into [lo, hi]: in-range values pass through unchanged
// (normalization is idempotent), anything else wraps mod the range
// size so every byte pattern names a valid scenario.
func fold(v, lo, hi uint8) uint8 {
	if v >= lo && v <= hi {
		return v
	}
	return lo + v%(hi-lo+1)
}

// Normalize folds every field into its legal range and returns the
// result. Idempotent: normalizing a normalized genome is the identity.
func (g Genome) Normalize() Genome {
	g.Topo = fold(g.Topo, 0, uint8(len(fuzzTopos)-1))
	g.Protocol = fold(g.Protocol, 0, uint8(len(fuzzProtocols)-1))
	g.Receivers = fold(g.Receivers, 1, 8)
	g.ChurnRate = fold(g.ChurnRate, 0, 8)
	g.ChurnAmp = fold(g.ChurnAmp, 1, 5)
	g.LossPct = fold(g.LossPct, 0, 40)
	g.BurstPct = fold(g.BurstPct, 0, 10)
	g.BurstLen = fold(g.BurstLen, 1, 8)
	g.Jitter = fold(g.Jitter, 0, 20)
	g.DupPct = fold(g.DupPct, 0, 20)
	g.Groups = fold(g.Groups, 0, 4)
	g.GroupSize = fold(g.GroupSize, 1, 4)
	g.Leaves = fold(g.Leaves, 0, 3)
	g.Window = fold(g.Window, 8, 30)
	g.Channels = fold(g.Channels, 0, 3)
	g.Skew = fold(g.Skew, 0, 30)
	return g
}

// refreshInterval is the dynamic protocols' TreeInterval, the time
// base the genome's churn-rate and window fields are expressed in.
const refreshInterval = eventsim.Time(100)

// Spec maps the (normalized) genome onto the adversarial engine's
// parameter space.
func (g Genome) Spec() experiment.AdvSpec {
	g = g.Normalize()
	spec := experiment.AdvSpec{
		Topo:      fuzzTopos[g.Topo],
		Protocol:  fuzzProtocols[g.Protocol],
		Receivers: int(g.Receivers),
		Seed:      g.Seed,

		Loss:       float64(g.LossPct) / 100,
		BurstStart: float64(g.BurstPct) / 100,
		BurstLen:   int(g.BurstLen),
		Jitter:     eventsim.Time(g.Jitter),
		Duplicate:  float64(g.DupPct) / 100,

		Groups:    int(g.Groups),
		GroupSize: int(g.GroupSize),
		Leaves:    int(g.Leaves),

		WindowIntervals: int(g.Window),
		ExtraChannels:   int(g.Channels),

		LazyRouting: g.Topo >= fuzzCatalogTopos,
		TimerSkew:   float64(g.Skew) / 100,
	}
	if g.ChurnRate > 0 {
		spec.ChurnPeriod = 2 * refreshInterval / eventsim.Time(g.ChurnRate)
		spec.ChurnAmplitude = int(g.ChurnAmp)
	}
	return spec
}

// knobs returns the thirteen single-byte fields in their byte-codec
// order (offsets 2..14). The order is frozen: it is what every corpus
// input on disk decodes through.
func (g *Genome) knobs() [13]*uint8 {
	return [...]*uint8{
		&g.Receivers, &g.ChurnRate, &g.ChurnAmp, &g.LossPct, &g.BurstPct,
		&g.BurstLen, &g.Jitter, &g.DupPct, &g.Groups, &g.GroupSize, &g.Leaves,
		&g.Window, &g.Channels,
	}
}

// DecodeBytes maps an arbitrary byte string onto a genome — the total
// decoding the go-fuzz harness needs (every input the engine mutates
// must be a runnable scenario). Layout: topo, protocol, the thirteen
// knobs in knobs order, eight seed bytes little-endian,
// then the timer-skew byte; missing bytes read as zero, so every
// pre-skew 23-byte input decodes to the same scenario it always named.
func DecodeBytes(data []byte) Genome {
	at := func(i int) uint8 {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	var g Genome
	g.Topo, g.Protocol = at(0), at(1)
	for i, p := range g.knobs() {
		*p = at(2 + i)
	}
	for i := 0; i < 8; i++ {
		g.Seed |= int64(at(15+i)) << (8 * i)
	}
	g.Skew = at(23)
	return g.Normalize()
}

// EncodeBytes is the inverse of DecodeBytes for normalized genomes,
// used to hand the seed corpus to the go-fuzz engine. The skew byte is
// emitted only when set: a skew-free genome keeps the historical
// 23-byte form, so every existing corpus entry is bit-stable.
func (g Genome) EncodeBytes() []byte {
	g = g.Normalize()
	n := 23
	if g.Skew > 0 {
		n = 24
	}
	out := make([]byte, n)
	out[0], out[1] = g.Topo, g.Protocol
	for i, p := range g.knobs() {
		out[2+i] = *p
	}
	for i := 0; i < 8; i++ {
		out[15+i] = byte(g.Seed >> (8 * i))
	}
	if g.Skew > 0 {
		out[23] = g.Skew
	}
	return out
}

// String renders the genome on one line for logs.
func (g Genome) String() string {
	g = g.Normalize()
	parts := []string{
		fmt.Sprintf("topo=%s", fuzzTopos[g.Topo]),
		fmt.Sprintf("proto=%s", fuzzProtocols[g.Protocol]),
		fmt.Sprintf("rcv=%d", g.Receivers),
	}
	add := func(name string, v uint8) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("churn", g.ChurnRate)
	add("loss", g.LossPct)
	add("burst", g.BurstPct)
	add("jitter", g.Jitter)
	add("dup", g.DupPct)
	add("groups", g.Groups)
	add("leaves", g.Leaves)
	add("chans", g.Channels)
	add("skew", g.Skew)
	parts = append(parts, fmt.Sprintf("win=%d", g.Window), fmt.Sprintf("seed=%d", g.Seed))
	sort.Strings(parts[3 : len(parts)-2])
	return strings.Join(parts, " ")
}
