// Package invariant is a runtime conformance checker for the multicast
// protocols: it hooks the simulator (state-change observers, delivery
// taps, the per-event callback of the event queue) and machine-checks
// the structural properties the paper claims, instead of spot-checking
// them through figures.
//
// The properties come straight from the paper's argument (PAPER.md
// §3–4): HBH's join/tree/fusion algorithm converges to a loop-free
// tree that spans the receivers, serves each exactly once, and equals
// the unicast shortest-path tree even under asymmetric routing — and
// being soft-state, it leaves no residue once the receivers depart.
// Each invariant is checkable against live protocol tables, so any
// scenario — including ones no figure covers — self-verifies.
//
// The package deliberately knows nothing about the protocol engines:
// core and reunite implement StateProvider (they snapshot their own
// tables and reconstruct their own delivery trees), which keeps the
// dependency arrow pointing protocol -> checker and lets the engines'
// own test suites run under the checker.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
)

// Violation is one detected invariant breach, attributed to the node
// and channel where the checker observed it.
type Violation struct {
	At        eventsim.Time
	Node      addr.Addr
	Channel   addr.Channel
	Invariant string
	Detail    string
	// Tree is the reconstructed delivery-tree dump captured when the
	// violation was detected (empty for node-local checks).
	Tree string
	// Recent is the flight-recorder dump for the violating node — the
	// last protocol events it saw before the breach — captured when the
	// observer wired in via Checker.SetObserver keeps a recorder (empty
	// otherwise).
	Recent string
	// Episode is the causal episode of the channel's last structural
	// mutation before the breach was detected: the join, expiry or fault
	// cascade that last reshaped the tree (0 without an observer wired
	// in via Checker.SetObserver).
	Episode uint64
}

// String renders the violation as a single diagnostic block.
func (v Violation) String() string {
	s := fmt.Sprintf("t=%.1f node=%v channel=%v invariant=%s: %s",
		float64(v.At), v.Node, v.Channel, v.Invariant, v.Detail)
	if v.Episode != 0 {
		s += fmt.Sprintf("\ncausal episode %d", v.Episode)
	}
	if v.Tree != "" {
		s += "\n" + v.Tree
	}
	if v.Recent != "" {
		s += "\n" + v.Recent
	}
	return s
}

// Config selects which invariants a Checker enforces. Not every
// protocol satisfies every property — the profiles below encode what
// the paper actually claims for each.
type Config struct {
	// Structural enforces the node-local table invariants at every
	// state change: MCT/MFT mutual exclusion per channel, no self
	// entries, mark/ServedBy consistency, no empty persisting MFT.
	Structural bool
	// LoopFree rejects cycles in the delivery tree reconstructed from
	// the live forwarding tables.
	LoopFree bool
	// Spanning requires every current member to be reachable through
	// the reconstructed tree.
	Spanning bool
	// UniqueService requires every member to be served by exactly one
	// delivery chain (no parallel data paths).
	UniqueService bool
	// ShortestPath requires each member's delivery chain to cost
	// exactly the unicast shortest-path distance from the root — the
	// paper's Theorem-level property, meaningful under asymmetry.
	ShortestPath bool
	// Delivery checks completeness and duplicate-freedom of an actual
	// probe: once quiescent, each member receives each sequence number
	// exactly once.
	Delivery bool
	// LinkUnique requires at most one copy of a data packet per
	// directed link (the multicast property; a unicast star violates
	// it by design).
	LinkUnique bool
	// Leaks audits for residual per-channel soft state after teardown.
	Leaks bool
}

// ProfileHBH enables everything: HBH claims the full set.
func ProfileHBH() Config {
	return Config{
		Structural: true, LoopFree: true, Spanning: true,
		UniqueService: true, ShortestPath: true,
		Delivery: true, LinkUnique: true, Leaks: true,
	}
}

// ProfileHBHNoFusion covers the fusion ablation: without branching the
// source serves every receiver by direct unicast, which still spans,
// is loop-free, shortest-path and delivers exactly once — but
// duplicates copies on shared links, which is precisely what the A1
// ablation measures. LinkUnique is therefore off.
func ProfileHBHNoFusion() Config {
	c := ProfileHBH()
	c.LinkUnique = false
	return c
}

// ProfileREUNITE covers what REUNITE guarantees: sound per-node tables
// and leak-free teardown. Tree-shape and delivery guarantees are
// deliberately off — the paper's §4 point is that REUNITE degenerates
// under asymmetric routing (parallel chains, duplicate and missing
// deliveries), and the a3 sweep reproduces exactly that. Turning those
// checks on would flag the behaviour the experiments exist to measure.
func ProfileREUNITE() Config {
	return Config{Structural: true, LoopFree: true, Leaks: true}
}

// ProfilePIM covers the PIM baselines: their trees are built
// centrally (there is no hop-by-hop soft state to snapshot), so only
// the delivery-level properties are checkable — each member gets each
// packet exactly once with at most one copy per link.
func ProfilePIM() Config {
	return Config{Delivery: true, LinkUnique: true}
}

// EntryState is the checker's view of one MFT row.
type EntryState struct {
	Node     addr.Addr
	Marked   bool
	Stale    bool
	ServedBy addr.Addr
}

// NodeState is the checker's snapshot of one protocol agent's
// per-channel tables: a router (MCT xor MFT) or the channel root
// (always an MFT).
type NodeState struct {
	Node    addr.Addr
	IsRoot  bool
	HasMCT  bool
	MCTNode addr.Addr
	HasMFT  bool
	Entries []EntryState
}

// Residual describes leftover per-channel soft state found by the
// leak audit after teardown.
type Residual struct {
	Node   addr.Addr
	Detail string
}

// StateProvider is implemented by the protocol engines (core, reunite)
// to expose their live state to the checker. A nil provider disables
// every table-derived check (the PIM profile needs none).
type StateProvider interface {
	// Root returns the channel root's unicast address.
	Root() addr.Addr
	// States snapshots the per-channel tables of the root and every
	// attached router that currently holds state for the channel.
	States() []NodeState
	// DeliveryTree reconstructs the recursive-unicast delivery tree
	// from the live forwarding tables, mirroring the engine's own data
	// path (split horizon, duplicate suppression, marked entries).
	DeliveryTree() *Tree
	// Residuals reports leftover per-channel state for the leak audit.
	Residuals() []Residual
}

// Tree is a reconstructed delivery tree: for every node the data
// plane would hand a copy to, the chain of replication points (root
// first) that leads there, plus any cycles found during the walk.
type Tree struct {
	Root addr.Addr
	// Chains maps a delivery target to the serving chains that reach
	// it. More than one chain means parallel delivery paths; members
	// must appear exactly once.
	Chains map[addr.Addr][][]addr.Addr
	Loops  [][]addr.Addr
}

// NewTree returns an empty tree rooted at root.
func NewTree(root addr.Addr) *Tree {
	return &Tree{Root: root, Chains: make(map[addr.Addr][][]addr.Addr)}
}

// AddChain records that target receives a copy through chain (the
// replication points from the root, root first, target excluded). The
// chain is copied.
func (t *Tree) AddChain(target addr.Addr, chain []addr.Addr) {
	t.Chains[target] = append(t.Chains[target], append([]addr.Addr(nil), chain...))
}

// AddLoop records a cycle found during reconstruction: the chain that
// led into the repeated node, ending with the repeat. The slice is
// copied.
func (t *Tree) AddLoop(cycle []addr.Addr) {
	t.Loops = append(t.Loops, append([]addr.Addr(nil), cycle...))
}

// Format renders the tree for violation reports. label resolves
// addresses to human names (nil falls back to dotted quads).
func (t *Tree) Format(label func(addr.Addr) string) string {
	if label == nil {
		label = func(a addr.Addr) string { return a.String() }
	}
	targets := make([]addr.Addr, 0, len(t.Chains))
	for a := range t.Chains {
		targets = append(targets, a)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "  tree root=%s\n", label(t.Root))
	for _, tgt := range targets {
		for _, chain := range t.Chains[tgt] {
			b.WriteString("    ")
			for _, n := range chain {
				b.WriteString(label(n))
				b.WriteString(" -> ")
			}
			b.WriteString(label(tgt))
			b.WriteByte('\n')
		}
	}
	for _, loop := range t.Loops {
		b.WriteString("    LOOP: ")
		for i, n := range loop {
			if i > 0 {
				b.WriteString(" -> ")
			}
			b.WriteString(label(n))
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}
