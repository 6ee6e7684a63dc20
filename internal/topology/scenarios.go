package topology

import "hbh/internal/addr"

// This file holds the small hand-built topologies that reproduce the
// paper's worked examples (§2.3, Figures 2, 3 and 5). They are used by
// the protocol test suites and the hbhtrace and hbhd commands.

// Scenario bundles a hand-built graph with its named cast.
type Scenario struct {
	// Graph is the wired topology.
	Graph *Graph
	// Source is the source host (S in the figures).
	Source NodeID
	// R1, R2 are the receiver hosts (r1, r2 in the figures).
	R1, R2 NodeID
}

// Fig2Scenario builds the §2.3 asymmetric-join pathology (Figures 2
// and 5):
//
//	S - A - B - C - r1
//	    |       |
//	    +---D---+
//	        |
//	        r2
//
// cost(A->D) = 1 but cost(D->A) = 10, so the forward shortest path
// S->r2 uses A->D (delay 3) while r2's join toward S travels
// D->C->B->A, crossing C on r1's tree branch. REUNITE intercepts the
// join at C and pins r2 to the S->A->B->C->D->r2 detour (delay 5);
// HBH lets the first join reach S and serves r2 on the shortest path.
func Fig2Scenario() Scenario {
	g := New()
	a := g.AddNode(Router, addr.RouterAddr(0), "A")
	b := g.AddNode(Router, addr.RouterAddr(1), "B")
	c := g.AddNode(Router, addr.RouterAddr(2), "C")
	d := g.AddNode(Router, addr.RouterAddr(3), "D")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, c, 1, 1)
	g.AddLink(c, d, 1, 1)
	g.AddLink(a, d, 1, 10)
	s := g.AddNode(Host, addr.ReceiverAddr(0), "S")
	g.AddLink(s, a, 1, 1)
	r1 := g.AddNode(Host, addr.ReceiverAddr(2), "r1")
	g.AddLink(r1, c, 1, 1)
	r2 := g.AddNode(Host, addr.ReceiverAddr(3), "r2")
	g.AddLink(r2, d, 1, 1)
	return Scenario{Graph: g, Source: s, R1: r1, R2: r2}
}

// Fig3Scenario builds the §2.3 duplication pathology (Figure 3):
//
//	S - A - B - C - r1
//	    |    \
//	    E     D - r2
//	     \____|
//
// The delivery trees to r1 and r2 share the trunk A-B, but r2's join
// path toward S runs D->E->A (the D->B and E->A/D->E directions are
// skewed), bypassing B. REUNITE therefore never detects B as a
// branching node and carries two copies of every data packet on A->B;
// HBH's fusion mechanism makes B announce itself and collapses the
// duplicate.
func Fig3Scenario() Scenario {
	g := New()
	a := g.AddNode(Router, addr.RouterAddr(0), "A")
	b := g.AddNode(Router, addr.RouterAddr(1), "B")
	c := g.AddNode(Router, addr.RouterAddr(2), "C")
	d := g.AddNode(Router, addr.RouterAddr(3), "D")
	e := g.AddNode(Router, addr.RouterAddr(4), "E")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, c, 1, 1)
	g.AddLink(b, d, 1, 10) // cheap only in the B->D direction
	g.AddLink(a, e, 10, 1) // cheap only in the E->A direction
	g.AddLink(e, d, 10, 1) // cheap only in the D->E direction
	s := g.AddNode(Host, addr.ReceiverAddr(0), "S")
	g.AddLink(s, a, 1, 1)
	r1 := g.AddNode(Host, addr.ReceiverAddr(2), "r1")
	g.AddLink(r1, c, 1, 1)
	r2 := g.AddNode(Host, addr.ReceiverAddr(3), "r2")
	g.AddLink(r2, d, 1, 1)
	return Scenario{Graph: g, Source: s, R1: r1, R2: r2}
}
