// Package mtree measures converged multicast distribution trees by
// probing them with real data packets: the tree cost is the number of
// copies of one packet transmitted over network links (the paper's
// Figure 7 metric) and the receiver delay is the virtual time from
// emission to delivery (the Figure 8 metric).
//
// Measuring by probe rather than by inspecting protocol tables keeps
// the pipeline identical for every protocol — HBH, REUNITE and the PIM
// baselines all answer the same question: "inject one packet at the
// source; count link copies and arrival times".
package mtree

import (
	"fmt"
	"sort"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// Member is the view of a receiver agent the prober needs, implemented
// by every protocol's receiver type.
type Member interface {
	// Addr is the member's unicast address.
	Addr() addr.Addr
	// DeliveryAt returns the arrival time of the data packet with the
	// given sequence number, if it was delivered.
	DeliveryAt(seq uint32) (eventsim.Time, bool)
	// DeliveryCount returns how many copies of that packet arrived.
	DeliveryCount(seq uint32) int
}

// Link is a directed link identified by its endpoints.
type Link struct {
	From, To topology.NodeID
}

// Result is one probe measurement.
type Result struct {
	// Seq is the probed packet's sequence number.
	Seq uint32
	// Cost is the total number of packet copies transmitted over
	// links — the paper's tree cost.
	Cost int
	// LinkCopies maps each traversed directed link to the number of
	// copies it carried. A value above 1 is a duplication (the Fig. 3
	// pathology).
	LinkCopies map[Link]int
	// Delays holds the per-member delay in time units.
	Delays map[addr.Addr]eventsim.Time
	// Missing lists members that never received the probe.
	Missing []addr.Addr
	// Duplicates is the total number of surplus deliveries across
	// members.
	Duplicates int
}

// MeanDelay returns the average receiver delay over members that
// received the probe, the quantity plotted in Figure 8. Returns 0 when
// nothing was delivered.
func (r *Result) MeanDelay() float64 {
	if len(r.Delays) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.Delays {
		sum += float64(d)
	}
	return sum / float64(len(r.Delays))
}

// MaxLinkCopies returns the highest per-link copy count (1 on a
// duplication-free tree).
func (r *Result) MaxLinkCopies() int {
	max := 0
	for _, c := range r.LinkCopies {
		if c > max {
			max = c
		}
	}
	return max
}

// Complete reports whether every member received exactly one copy.
func (r *Result) Complete() bool {
	return len(r.Missing) == 0 && r.Duplicates == 0
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("probe seq=%d cost=%d meanDelay=%.2f missing=%d dups=%d",
		r.Seq, r.Cost, r.MeanDelay(), len(r.Missing), r.Duplicates)
}

// settleTime bounds how long a probe is allowed to propagate. Network
// diameters in the evaluation are tens of cost units; 2000 covers any
// recursive-unicast detour with a wide margin while staying short next
// to the convergence phase.
const settleTime eventsim.Time = 2000

// Probe injects one data packet via send and lets the simulation run
// until it has propagated, then collects cost, per-link copies and
// per-member delays. send must emit exactly one logical packet and
// return its sequence number (protocol sources fan it out into several
// unicast copies — those are the copies being counted).
func Probe(net *netsim.Network, send func() uint32, members []Member) *Result {
	sim := net.Sim()
	res := &Result{
		LinkCopies: make(map[Link]int),
		Delays:     make(map[addr.Addr]eventsim.Time),
	}

	// Record every data transmission by sequence number and filter
	// afterwards: the send callback transmits the first hops
	// synchronously, before its sequence number is known here.
	type rec struct {
		link Link
		seq  uint32
	}
	copies := make(map[rec]int)
	start := sim.Now()
	// The tap lives as long as the probe: a session probed again and
	// again must not pay for every earlier probe's tap on every later
	// transmission.
	net.WithTap(func(from, to topology.NodeID, msg packet.Message) {
		if d, ok := msg.(*packet.Data); ok {
			copies[rec{link: Link{From: from, To: to}, seq: d.Seq}]++
		}
	}, func() {
		res.Seq = send()
		if err := sim.Run(start + settleTime); err != nil {
			panic(fmt.Sprintf("mtree: probe run: %v", err))
		}
	})

	total := 0
	for rc, c := range copies {
		if rc.seq != res.Seq {
			continue
		}
		res.LinkCopies[rc.link] = c
		total += c
	}
	res.Cost = total

	for _, m := range members {
		at, ok := m.DeliveryAt(res.Seq)
		if !ok {
			res.Missing = append(res.Missing, m.Addr())
			continue
		}
		res.Delays[m.Addr()] = at - start
		if extra := m.DeliveryCount(res.Seq) - 1; extra > 0 {
			res.Duplicates += extra
		}
	}
	sort.Slice(res.Missing, func(i, j int) bool { return res.Missing[i] < res.Missing[j] })
	return res
}

// PathTo reconstructs the delivery path of one member from the probed
// link set: the chain of directed links the data actually traversed
// from the source host to the member's host. Returns nil when the
// member is not reachable through the captured links. On a
// duplication-free tree the path is unique; with duplications the
// shortest chain (in hops) is returned.
func (r *Result) PathTo(g *topology.Graph, srcHost, member topology.NodeID) []Link {
	adj := make(map[topology.NodeID][]topology.NodeID, len(r.LinkCopies))
	for l := range r.LinkCopies {
		adj[l.From] = append(adj[l.From], l.To)
	}
	for _, ns := range adj {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	// BFS from the source host.
	prev := map[topology.NodeID]topology.NodeID{srcHost: srcHost}
	queue := []topology.NodeID{srcHost}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == member {
			break
		}
		for _, nxt := range adj[v] {
			if _, seen := prev[nxt]; !seen {
				prev[nxt] = v
				queue = append(queue, nxt)
			}
		}
	}
	if _, ok := prev[member]; !ok {
		return nil
	}
	var rev []Link
	for cur := member; cur != srcHost; cur = prev[cur] {
		rev = append(rev, Link{From: prev[cur], To: cur})
	}
	out := make([]Link, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// DOT renders the probed distribution tree in Graphviz format: only
// the nodes and directed links the data traversed, with multi-copy
// links highlighted in red and labelled with their copy count. Pipe
// through `dot -Tsvg` to visualise a tree next to its topology
// (Graph.DOT).
func (r *Result) DOT(g *topology.Graph) string {
	var b strings.Builder
	b.WriteString("digraph tree {\n")
	b.WriteString("  rankdir=LR;\n")
	nodes := map[topology.NodeID]bool{}
	links := make([]Link, 0, len(r.LinkCopies))
	for l := range r.LinkCopies {
		nodes[l.From] = true
		nodes[l.To] = true
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	ids := make([]topology.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Node(id)
		shape := "box"
		if n.Kind == topology.Host {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", n.Name, shape)
	}
	for _, l := range links {
		c := r.LinkCopies[l]
		attrs := ""
		if c > 1 {
			attrs = fmt.Sprintf(" [color=red label=\"x%d\"]", c)
		}
		fmt.Fprintf(&b, "  %q -> %q%s;\n", g.Node(l.From).Name, g.Node(l.To).Name, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// FormatTree renders the probed distribution tree as sorted
// "A -> B xN" lines for traces and examples.
func (r *Result) FormatTree(g *topology.Graph) string {
	type row struct {
		from, to string
		n        int
	}
	rows := make([]row, 0, len(r.LinkCopies))
	for l, n := range r.LinkCopies {
		rows = append(rows, row{g.Node(l.From).Name, g.Node(l.To).Name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].from != rows[j].from {
			return rows[i].from < rows[j].from
		}
		return rows[i].to < rows[j].to
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s -> %s", r.from, r.to)
		if r.n > 1 {
			fmt.Fprintf(&b, "  x%d", r.n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
