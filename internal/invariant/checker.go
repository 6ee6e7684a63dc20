package invariant

import (
	"fmt"
	"math/rand"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// maxViolations bounds how many violations a checker records; a broken
// protocol trips invariants on every event, and the first few carry
// all the diagnostic value.
const maxViolations = 64

// seqWindow bounds how many recent data sequence numbers the delivery
// and link taps keep counters for.
const seqWindow = 1024

// Checker enforces a Config's invariants over one channel of one
// running network. Construct with New (taps are installed exactly
// once), then drive it: MarkDirty from the engine's state-change
// observer, OnEvent from the event queue's after-event hook,
// CheckConverged after a settled probe, CheckQuiescent after teardown.
type Checker struct {
	net  Network
	ch   addr.Channel
	cfg  Config
	prov StateProvider

	members   []addr.Addr
	memberSet map[addr.Addr]bool

	// sampleMax, when > 0, bounds how many members the converged-tree
	// and delivery checks walk (seeded random subset per checkpoint).
	// Large-n runs above the unicast fast-path threshold use it: the
	// exhaustive member walk reconstructs a path per member, which at
	// scale faults thousands of per-source rows into the lazy router.
	sampleMax  int
	sampleSeed int64
	sampleRNG  *rand.Rand

	dirty      bool
	violations []Violation
	suppressed int

	// o, when set, is the observability pipeline violate takes context
	// from (see SetObserver).
	o *obs.Observer

	// arrivals counts data-packet terminations per sequence number and
	// node; linkCopies counts per-link data copies per sequence number.
	arrivals   map[uint32]map[addr.Addr]int
	linkCopies map[uint32]map[[2]topology.NodeID]int
	seqOrder   []uint32
}

// New builds a checker for channel ch over net. prov supplies the
// protocol tables (nil disables the table-derived checks, as in the
// PIM profile). Delivery taps are installed here, exactly once — a
// checker must not be recreated per probe.
// Network is the slice of the running network the checker reads. Both
// *netsim.Network (virtual time) and the live runtime (internal/live)
// implement it, so the same checker runs offline after a simulation
// and online as a monitor inside hbhd.
type Network interface {
	Topology() *topology.Graph
	Routing() unicast.Router
	NodeName(id topology.NodeID) string
	Now() eventsim.Time
	AddTap(t netsim.Tap)
	AddDeliveryTap(t netsim.DeliveryTap)
}

// New builds a checker for channel ch over net. prov supplies the
// protocol tables (nil disables the table-derived checks, as in the
// PIM profile). Delivery taps are installed here, exactly once — a
// checker must not be recreated per probe.
func New(net Network, ch addr.Channel, cfg Config, prov StateProvider) *Checker {
	c := &Checker{
		net: net, ch: ch, cfg: cfg, prov: prov,
		memberSet:  make(map[addr.Addr]bool),
		arrivals:   make(map[uint32]map[addr.Addr]int),
		linkCopies: make(map[uint32]map[[2]topology.NodeID]int),
	}
	if cfg.Delivery {
		net.AddDeliveryTap(c.onDelivery)
	}
	if cfg.LinkUnique {
		net.AddTap(c.onLink)
	}
	return c
}

// Channel returns the channel this checker watches.
func (c *Checker) Channel() addr.Channel { return c.ch }

// SetMembers declares the current receiver set (unicast host
// addresses). Spanning, unique-service, shortest-path and delivery
// checks are evaluated against it; update it when membership changes.
func (c *Checker) SetMembers(members []addr.Addr) {
	c.members = append(c.members[:0], members...)
	c.memberSet = make(map[addr.Addr]bool, len(members))
	for _, m := range members {
		c.memberSet[m] = true
	}
}

// SetSample switches the member-population checks (spanning,
// unique-service, shortest-path, delivery) to sampled mode: each
// checkpoint validates a seeded random subset of at most max members
// instead of all of them. max <= 0 restores exhaustive checking.
// Checks already violated by any member stay sound — sampling only
// trades detection probability for bounded work at large n.
func (c *Checker) SetSample(seed int64, max int) {
	c.sampleMax = max
	c.sampleSeed = seed
	c.sampleRNG = nil
	if max > 0 {
		c.sampleRNG = rand.New(rand.NewSource(seed))
	}
}

// checkMembers returns the member subset the current checkpoint
// validates: everyone in exhaustive mode, a fresh seeded sample
// otherwise.
func (c *Checker) checkMembers() []addr.Addr {
	if c.sampleMax <= 0 || len(c.members) <= c.sampleMax {
		return c.members
	}
	idx := c.sampleRNG.Perm(len(c.members))[:c.sampleMax]
	out := make([]addr.Addr, 0, c.sampleMax)
	for _, i := range idx {
		out = append(out, c.members[i])
	}
	return out
}

// SetObserver wires the observability pipeline into the checker (nil
// clears it). Every violation recorded afterwards cites, in
// Violation.Episode, the causal episode of the channel's last
// structural mutation — the join, expiry or fault cascade that last
// reshaped the tree — from o's convergence tracker, which SetObserver
// enables; and, when o keeps a flight recorder, carries the violating
// node's dump in Violation.Recent.
func (c *Checker) SetObserver(o *obs.Observer) {
	if o != nil {
		o.EnableConvergence()
	}
	c.o = o
}

// MarkDirty flags that protocol state changed; the next OnEvent runs
// the structural checks. Wire it into the engine's ChangeObserver.
func (c *Checker) MarkDirty() { c.dirty = true }

// OnEvent is the per-event hook: it validates the node-local
// structural invariants whenever the preceding event mutated protocol
// state. Checking after the event (not inside the mutation) is what
// makes mid-event transients — MCT removed, MFT not yet built —
// invisible, as they should be.
func (c *Checker) OnEvent() {
	if c.dirty {
		c.dirty = false
		c.CheckStructural()
	}
}

// InstallContinuous wires the checkers' OnEvent hooks into sim's
// after-event callback. Call once with every checker sharing the
// clock; a later call replaces the earlier set.
func InstallContinuous(sim *eventsim.Sim, checkers ...*Checker) {
	cs := append([]*Checker(nil), checkers...)
	sim.SetAfterEvent(func() {
		for _, c := range cs {
			c.OnEvent()
		}
	})
}

// CheckStructural validates the node-local table invariants against a
// fresh provider snapshot.
func (c *Checker) CheckStructural() {
	if !c.cfg.Structural || c.prov == nil {
		return
	}
	for _, st := range c.prov.States() {
		if st.HasMCT && st.HasMFT {
			c.violate(st.Node, "mct-mft-exclusion",
				"router holds both control (MCT) and forwarding (MFT) state", "")
		}
		if st.HasMFT && len(st.Entries) == 0 && !st.IsRoot {
			c.violate(st.Node, "empty-mft",
				"branching state persisted with no entries (missed collapse)", "")
		}
		for _, e := range st.Entries {
			if e.Node == st.Node {
				c.violate(st.Node, "self-entry",
					fmt.Sprintf("MFT entry points at the holding node %v", e.Node), "")
			}
			if e.Marked && !e.ServedBy.IsUnicast() {
				c.violate(st.Node, "mark-sanity",
					fmt.Sprintf("entry %v marked with no serving relay recorded", e.Node), "")
			}
			if !e.Marked && e.ServedBy != addr.Unspecified {
				c.violate(st.Node, "mark-sanity",
					fmt.Sprintf("entry %v records relay %v but is not marked", e.Node, e.ServedBy), "")
			}
		}
	}
}

// CheckConverged validates the tree-level invariants at a
// post-convergence checkpoint: the tree reconstructed from live tables
// must be loop-free, span the members, serve each exactly once over a
// shortest path, and the probe with sequence number seq must have
// reached every member exactly once with at most one copy per link.
func (c *Checker) CheckConverged(seq uint32) {
	c.CheckStructural()
	tree := c.checkTree()
	dump := ""
	if tree != nil {
		dump = tree.Format(c.label)
	}
	if c.cfg.Delivery {
		got := c.arrivals[seq]
		for _, m := range c.checkMembers() {
			switch n := got[m]; {
			case n == 0:
				c.violate(m, "delivery-missing",
					fmt.Sprintf("member received no copy of seq %d", seq), dump)
			case n > 1:
				c.violate(m, "delivery-dup",
					fmt.Sprintf("member received %d copies of seq %d", n, seq), dump)
			}
		}
	}
	if c.cfg.LinkUnique {
		for link, n := range c.linkCopies[seq] {
			if n > 1 {
				from, to := link[0], link[1]
				c.violate(c.net.Topology().Node(from).Addr, "link-dup",
					fmt.Sprintf("%d copies of seq %d crossed link %s->%s", n, seq,
						c.net.NodeName(from), c.net.NodeName(to)), dump)
			}
		}
	}
}

// checkTree reconstructs the delivery tree and runs the shape checks,
// returning the tree for violation dumps (nil when no tree check is
// enabled or no provider is attached).
func (c *Checker) checkTree() *Tree {
	if c.prov == nil || !(c.cfg.LoopFree || c.cfg.Spanning || c.cfg.UniqueService || c.cfg.ShortestPath) {
		return nil
	}
	tree := c.prov.DeliveryTree()
	dump := tree.Format(c.label)
	if c.cfg.LoopFree {
		for _, loop := range tree.Loops {
			at := loop[len(loop)-1]
			c.violate(at, "loop",
				fmt.Sprintf("delivery chain revisits %v", at), dump)
		}
	}
	for _, m := range c.checkMembers() {
		chains := tree.Chains[m]
		if c.cfg.Spanning && len(chains) == 0 {
			c.violate(m, "spanning", "member unreachable through the reconstructed tree", dump)
		}
		if c.cfg.UniqueService && len(chains) > 1 {
			c.violate(m, "unique-service",
				fmt.Sprintf("member served by %d parallel delivery chains", len(chains)), dump)
		}
		if c.cfg.ShortestPath && len(chains) == 1 {
			c.checkShortest(m, chains[0], dump)
		}
	}
	return tree
}

// checkShortest verifies that the chain's hop-by-hop unicast cost to
// member equals the direct shortest-path distance from the root — the
// recursive-unicast tree and the unicast SPT must agree (paper §3.3).
func (c *Checker) checkShortest(member addr.Addr, chain []addr.Addr, dump string) {
	g, rt := c.net.Topology(), c.net.Routing()
	ids := make([]topology.NodeID, 0, len(chain)+1)
	for _, a := range append(append([]addr.Addr(nil), chain...), member) {
		id, ok := g.ByAddr(a)
		if !ok {
			return
		}
		ids = append(ids, id)
	}
	total := 0
	for i := 0; i+1 < len(ids); i++ {
		if !rt.Reachable(ids[i], ids[i+1]) {
			return // partitioned mid-fault: distance is undefined, not wrong
		}
		total += rt.Dist(ids[i], ids[i+1])
	}
	root := ids[0]
	if !rt.Reachable(root, ids[len(ids)-1]) {
		return
	}
	if want := rt.Dist(root, ids[len(ids)-1]); total != want {
		c.violate(member, "shortest-path",
			fmt.Sprintf("delivery chain costs %d, unicast shortest path costs %d", total, want), dump)
	}
}

// CheckQuiescent audits for leftover soft state once a channel should
// be gone: after the last receiver leaves (and timers expire) or after
// a router crash wiped its tables.
func (c *Checker) CheckQuiescent() {
	if !c.cfg.Leaks || c.prov == nil {
		return
	}
	for _, r := range c.prov.Residuals() {
		c.violate(r.Node, "soft-state-leak", r.Detail, "")
	}
}

// Violations returns everything recorded so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Clean reports whether no invariant has been violated.
func (c *Checker) Clean() bool { return len(c.violations) == 0 && c.suppressed == 0 }

// Report formats all recorded violations, one block per violation.
func (c *Checker) Report() string {
	if c.Clean() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s) on %v\n", len(c.violations)+c.suppressed, c.ch)
	for _, v := range c.violations {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	if c.suppressed > 0 {
		fmt.Fprintf(&b, "... and %d more suppressed\n", c.suppressed)
	}
	return strings.TrimRight(b.String(), "\n")
}

// MustClean panics with the full report if any violation was recorded.
// context names the scenario for the panic message.
func (c *Checker) MustClean(context string) {
	if !c.Clean() {
		panic(fmt.Sprintf("invariant: %s:\n%s", context, c.Report()))
	}
}

func (c *Checker) violate(node addr.Addr, invariant, detail, tree string) {
	if len(c.violations) >= maxViolations {
		c.suppressed++
		return
	}
	v := Violation{
		At: c.net.Now(), Node: node, Channel: c.ch,
		Invariant: invariant, Detail: detail, Tree: tree,
	}
	if c.o != nil {
		v.Episode = uint64(c.o.Convergence().Channel(c.ch).LastEpisode)
		if rec := c.o.Recorder(); rec != nil {
			v.Recent = rec.Dump(node)
		}
	}
	c.violations = append(c.violations, v)
}

func (c *Checker) label(a addr.Addr) string {
	if id, ok := c.net.Topology().ByAddr(a); ok {
		return c.net.NodeName(id)
	}
	return a.String()
}

// onDelivery counts data-packet terminations per sequence number and
// node; membership is filtered at check time so late SetMembers calls
// lose nothing.
func (c *Checker) onDelivery(at topology.NodeID, msg packet.Message, consumed bool) {
	d, ok := msg.(*packet.Data)
	if !ok || d.Channel != c.ch {
		return
	}
	m := c.arrivals[d.Seq]
	if m == nil {
		m = make(map[addr.Addr]int)
		if c.linkCopies[d.Seq] == nil {
			c.noteSeq(d.Seq)
		}
		c.arrivals[d.Seq] = m
	}
	m[c.net.Topology().Node(at).Addr]++
}

// onLink counts per-link copies of channel data packets.
func (c *Checker) onLink(from, to topology.NodeID, msg packet.Message) {
	d, ok := msg.(*packet.Data)
	if !ok || d.Channel != c.ch {
		return
	}
	m := c.linkCopies[d.Seq]
	if m == nil {
		m = make(map[[2]topology.NodeID]int)
		if c.arrivals[d.Seq] == nil {
			c.noteSeq(d.Seq)
		}
		c.linkCopies[d.Seq] = m
	}
	m[[2]topology.NodeID{from, to}]++
}

// noteSeq maintains the bounded window of tracked sequence numbers.
func (c *Checker) noteSeq(seq uint32) {
	c.seqOrder = append(c.seqOrder, seq)
	if len(c.seqOrder) > seqWindow {
		old := c.seqOrder[0]
		c.seqOrder = c.seqOrder[1:]
		delete(c.arrivals, old)
		delete(c.linkCopies, old)
	}
}
