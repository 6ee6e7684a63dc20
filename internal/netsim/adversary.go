package netsim

import (
	"fmt"
	"math/rand"

	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// Adversary configures the control-plane adversary: per-link-traversal
// delay jitter (which reorders control messages relative to each
// other), burst and uniform loss, and duplication — the exact message
// pathologies hard-state protocols carry acknowledgment machinery to
// survive, applied here to the soft-state control planes that claim
// not to need it. Data packets are never touched: what degrades under
// an active adversary is the protocol state that routes them, and the
// delivery measurements must keep meaning that.
//
// All draws come from the seeded RNG in deterministic event order, so
// an adversarial run is exactly as reproducible as a clean one.
type Adversary struct {
	// Loss drops each control traversal independently with this
	// probability, in [0, 1).
	Loss float64
	// BurstStart enters a loss burst with this probability per control
	// traversal, in [0, 1); the burst then swallows BurstLen
	// consecutive control traversals (network-wide — a correlated
	// control-plane brownout, not a per-link queue).
	BurstStart float64
	// BurstLen is the burst length in control traversals; must be >= 1
	// when BurstStart > 0.
	BurstLen int
	// MaxJitter adds a uniform extra delay in [0, MaxJitter) to each
	// surviving control traversal. Any two messages on the same link
	// whose sends are closer than the jitter span can arrive reordered.
	MaxJitter eventsim.Time
	// Duplicate injects a second copy of a surviving control traversal
	// with this probability, in [0, 1). The copy is a deep copy (via
	// the wire codec) with its own independent jitter.
	Duplicate float64
	// RNG drives all draws; required when any knob is non-zero.
	RNG *rand.Rand
}

// active reports whether any knob does anything.
func (a Adversary) active() bool {
	return a.Loss > 0 || a.BurstStart > 0 || a.MaxJitter > 0 || a.Duplicate > 0
}

func (a Adversary) validate() {
	for _, p := range []float64{a.Loss, a.BurstStart, a.Duplicate} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("netsim: adversary rate %v out of [0,1)", p))
		}
	}
	if a.MaxJitter < 0 {
		panic(fmt.Sprintf("netsim: adversary jitter %v negative", a.MaxJitter))
	}
	if a.BurstStart > 0 && a.BurstLen < 1 {
		panic(fmt.Sprintf("netsim: adversary burst length %d must be >= 1", a.BurstLen))
	}
	if a.active() && a.RNG == nil {
		panic("netsim: adversary needs an RNG")
	}
}

// advState is the installed adversary plus its running burst counter.
type advState struct {
	cfg       Adversary
	burstLeft int
}

// SetAdversary installs the control-plane adversary, or removes it
// when every knob is zero. With no adversary installed the forwarding
// path is bit-identical to a network that never heard of one (a
// single nil check), so all existing results are flag-invariant.
func (n *Network) SetAdversary(a Adversary) {
	a.validate()
	if !a.active() {
		n.adv = nil
		return
	}
	n.adv = &advState{cfg: a}
}

// roll decides one control traversal's fate: dropped, or forwarded
// with jitter and possibly duplicated. Draw order is fixed (burst,
// uniform loss, jitter, duplicate, duplicate's jitter) so a seeded
// schedule is bit-reproducible.
func (s *advState) roll() (drop bool, jitter, dupJitter eventsim.Time, dup bool) {
	cfg := &s.cfg
	switch {
	case s.burstLeft > 0:
		s.burstLeft--
		return true, 0, 0, false
	case cfg.BurstStart > 0 && cfg.RNG.Float64() < cfg.BurstStart:
		s.burstLeft = cfg.BurstLen - 1
		return true, 0, 0, false
	case cfg.Loss > 0 && cfg.RNG.Float64() < cfg.Loss:
		return true, 0, 0, false
	}
	if cfg.MaxJitter > 0 {
		jitter = eventsim.Time(cfg.RNG.Float64() * float64(cfg.MaxJitter))
	}
	if cfg.Duplicate > 0 && cfg.RNG.Float64() < cfg.Duplicate {
		dup = true
		if cfg.MaxJitter > 0 {
			dupJitter = eventsim.Time(cfg.RNG.Float64() * float64(cfg.MaxJitter))
		}
	}
	return false, jitter, dupJitter, dup
}

// duplicate injects the adversary's second copy of an in-flight
// control packet onto the link from -> to, arriving delay after now.
// The copy is deep (through the wire codec — handlers rewrite messages
// in place, so sharing the reference would entangle the twins) and
// inherits the original's *remaining* hop budget, so duplication can
// not amplify a looping packet beyond the original's own budget. For
// the convergence tracker's cost ledger the copy is an origination
// (KindSendDirect): one more control message sent.
func (n *Network) duplicate(from, to topology.NodeID, env *Envelope, delay eventsim.Time) {
	buf, err := packet.Marshal(env.msg)
	if err != nil {
		panic(fmt.Sprintf("netsim: adversary dup marshal on %d->%d: %v", from, to, err))
	}
	msg, err := packet.Unmarshal(buf)
	if err != nil {
		panic(fmt.Sprintf("netsim: adversary dup unmarshal on %d->%d: %v", from, to, err))
	}
	s := n.nodes[from].s
	d := n.newEnvelope(s, msg, env.dst)
	d.hops = env.hops
	d.cause = env.cause
	d.to = to
	s.stats.Transmissions++
	s.stats.AdvDups++
	for _, tap := range n.taps {
		tap(from, to, msg)
	}
	if n.obsv != nil {
		n.emitMsg(d.cause, obs.KindSendDirect, obs.CauseNone, n.nodes[from], n.nodes[to], msg)
		d.cause = n.emitMsg(d.cause, obs.KindForward, obs.CauseNone, n.nodes[from], n.nodes[to], msg)
	}
	n.sim.AfterCall(delay, d)
}
