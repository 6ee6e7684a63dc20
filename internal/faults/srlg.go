package faults

import (
	"fmt"
	"math/rand"

	"hbh/internal/eventsim"
	"hbh/internal/topology"
)

// Group is a shared-risk link group: a named set of undirected links
// that fail (and heal) together, modelling a shared conduit, an
// amplifier site, or a regional power outage. Only router–router links
// belong in a group: the paper's receivers are singly homed, and
// cutting a host's only link tests nothing but the obvious.
type Group struct {
	Name  string
	Links [][2]topology.NodeID
}

// coreLinks lists the graph's router–router links in edge order.
func coreLinks(g *topology.Graph) [][2]topology.NodeID {
	var core [][2]topology.NodeID
	for _, e := range g.Edges() {
		if g.Node(e.A).Kind == topology.Router && g.Node(e.B).Kind == topology.Router {
			core = append(core, [2]topology.NodeID{e.A, e.B})
		}
	}
	return core
}

// RandomSRLGPlan draws n shared-risk groups of size core links each
// (without replacement within a group) and schedules group i's outage
// at start + i*spacing, healing downFor later. The result is a pure
// function of (rng state, g, parameters). The drawn groups are
// returned alongside the plan for tests and reporting.
func RandomSRLGPlan(rng *rand.Rand, g *topology.Graph, n, size int,
	start, spacing, downFor eventsim.Time) (*Plan, []Group) {
	core := coreLinks(g)
	if len(core) == 0 {
		panic("faults: graph has no router-router links")
	}
	if size < 1 {
		panic(fmt.Sprintf("faults: SRLG size %d < 1", size))
	}
	if size > len(core) {
		size = len(core)
	}
	p := NewPlan()
	groups := make([]Group, 0, n)
	for i := 0; i < n; i++ {
		// Partial Fisher-Yates over a copy: the first size entries are a
		// uniform sample without replacement.
		pool := append([][2]topology.NodeID(nil), core...)
		for j := 0; j < size; j++ {
			k := j + rng.Intn(len(pool)-j)
			pool[j], pool[k] = pool[k], pool[j]
		}
		grp := Group{Name: fmt.Sprintf("srlg-%d", i), Links: pool[:size:size]}
		at := start + eventsim.Time(i)*spacing
		p.GroupDown(at, grp)
		p.GroupUp(at+downFor, grp)
		groups = append(groups, grp)
	}
	return p, groups
}
