package faults

import (
	"fmt"
	"math/rand"

	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// ChurnConfig parameterises continuous link-cost churn: the dynamic
// adversity of an IGP whose metrics never settle (load-adaptive
// costs, flapping TE weights). Every Period the churner applies a
// random-walk step to every router–router link's directed costs,
// clamped to the evaluation's cost range [churnLo, churnHi], and
// reconverges unicast routing incrementally — the soft-state trees
// above keep chasing a moving shortest-path target.
type ChurnConfig struct {
	// Period is the virtual time between churn ticks. Must be > 0.
	Period eventsim.Time
	// Amplitude is the maximum absolute cost step per direction per
	// tick (each step is uniform in [-Amplitude, +Amplitude]). Must be
	// >= 1.
	Amplitude int
	// RNG drives the walk. Required: churn is seeded adversity, never
	// ambient randomness.
	RNG *rand.Rand
}

// churnLo and churnHi clamp the walked costs: the evaluation's cost
// range.
const churnLo, churnHi = 1, 10

// Churner applies continuous cost churn to a network. Create with
// NewChurner, Start it once the simulation is set up, and Stop it to
// end the adversity window. Draws happen in deterministic link order
// inside simulation events, so a seeded run reproduces bit-for-bit.
type Churner struct {
	net    *netsim.Network
	cfg    ChurnConfig
	links  [][2]topology.NodeID
	ticker *clock.Ticker
	ticks  int
}

// NewChurner validates the config and binds a churner to the
// network's router–router links.
func NewChurner(net *netsim.Network, cfg ChurnConfig) *Churner {
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("faults: churn period %v must be > 0", cfg.Period))
	}
	if cfg.Amplitude < 1 {
		panic(fmt.Sprintf("faults: churn amplitude %d must be >= 1", cfg.Amplitude))
	}
	if cfg.RNG == nil {
		panic("faults: churn requires a seeded RNG")
	}
	links := coreLinks(net.Topology())
	if len(links) == 0 {
		panic("faults: graph has no router-router links")
	}
	return &Churner{net: net, cfg: cfg, links: links}
}

// Start begins ticking on the network's simulation clock; the first
// tick fires one Period from now.
func (c *Churner) Start() {
	if c.ticker != nil {
		panic("faults: churner already started")
	}
	c.ticker = clock.NewTicker(c.net.Clock(), c.cfg.Period, c.tick)
}

// Stop ends the churn; the walked costs stay where they are (the
// substrate does not snap back — recovery is measured on whatever
// metric landscape the churn left behind).
func (c *Churner) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// tick walks every core link's costs one step and reconverges the
// routing tables once for the whole batch. Like a fault, a churn tick
// is a spontaneous root cause: it roots a causal episode so the
// protocol reactions it triggers attribute to it.
func (c *Churner) tick() {
	cause := c.net.Root()
	g := c.net.Topology()
	clamp := func(v int) int {
		if v < churnLo {
			return churnLo
		}
		if v > churnHi {
			return churnHi
		}
		return v
	}
	span := 2*c.cfg.Amplitude + 1
	changes := make([]unicast.CostChange, 0, len(c.links))
	for _, l := range c.links {
		oldAB, oldBA := g.Cost(l[0], l[1]), g.Cost(l[1], l[0])
		newAB := clamp(oldAB + c.cfg.RNG.Intn(span) - c.cfg.Amplitude)
		newBA := clamp(oldBA + c.cfg.RNG.Intn(span) - c.cfg.Amplitude)
		if newAB == oldAB && newBA == oldBA {
			continue
		}
		g.SetLinkCost(l[0], l[1], newAB, newBA)
		changes = append(changes, unicast.CostChange{A: l[0], B: l[1], OldAB: oldAB, OldBA: oldBA})
	}
	c.ticks++
	if len(changes) == 0 {
		return
	}
	c.net.Routing().RecomputeCostChanges(changes...)
	if c.net.Observer() != nil {
		c.net.Emit(cause, obs.Event{Kind: obs.KindFault,
			Detail: fmt.Sprintf("FAULT COST-CHURN tick %d: %d links walked", c.ticks, len(changes))})
	}
}
