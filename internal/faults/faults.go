// Package faults is the fault-injection layer: deterministic,
// eventsim-scheduled plans of link failures (LinkDown/LinkUp), router
// crashes (NodeDown/NodeUp) and shared-risk group outages
// (GroupDown/GroupUp), applied to a running netsim.Network.
//
// The layer exists to test the protocols' headline robustness claim:
// HBH's soft-state join/tree/fusion machinery is supposed to heal
// shortest-path trees after substrate failures purely through its
// periodic refreshes, with no dedicated repair messages. The injector
// therefore only touches the substrate — it flips topology link state,
// marks netsim nodes down, and reconverges the unicast routing tables
// (the simulated IGP) — and leaves every protocol table alone. What a
// crash does to a router's own soft state is the protocol layer's
// decision, wired in through the node-down hook (core.Router.Reset for
// HBH).
//
// Everything is deterministic: plans are explicit event lists (or
// drawn from a caller-seeded RNG), events fire on the simulation
// clock, and routing reconvergence happens atomically inside the
// event, so a run with a fixed seed is exactly reproducible.
package faults

import (
	"fmt"
	"sort"

	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// LinkDown disables an undirected link (both directions).
	LinkDown Kind = iota
	// LinkUp re-enables a previously disabled link.
	LinkUp
	// NodeDown crashes a node: it stops handling packets and all its
	// incident links go down.
	NodeDown
	// NodeUp restores a crashed node and the incident links that went
	// down with it (links failed independently stay down).
	NodeUp
	// GroupDown disables every link of a shared-risk group atomically
	// (one event, one routing reconvergence).
	GroupDown
	// GroupUp re-enables the group's links that GroupDown actually took
	// down (links failed independently stay down).
	GroupUp
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "LINK-DOWN"
	case LinkUp:
		return "LINK-UP"
	case NodeDown:
		return "NODE-DOWN"
	case NodeUp:
		return "NODE-UP"
	case GroupDown:
		return "GROUP-DOWN"
	case GroupUp:
		return "GROUP-UP"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Event is one scheduled fault. For link events A and B are the link's
// endpoints; for node events A is the node and B is topology.None; for
// group events A and B are None and Group names the shared-risk group
// whose links fail or heal together.
type Event struct {
	At    eventsim.Time
	Kind  Kind
	A, B  topology.NodeID
	Group Group
}

// String renders the event with raw node IDs; the injector's trace
// output uses topology names instead.
func (e Event) String() string {
	switch e.Kind {
	case NodeDown, NodeUp:
		return fmt.Sprintf("%v %s node %d", e.At, e.Kind, e.A)
	case GroupDown, GroupUp:
		return fmt.Sprintf("%v %s %s (%d links)", e.At, e.Kind, e.Group.Name, len(e.Group.Links))
	}
	return fmt.Sprintf("%v %s link %d-%d", e.At, e.Kind, e.A, e.B)
}

// Plan is an ordered fault schedule, built with the fluent methods or
// drawn by RandomSRLGPlan.
type Plan struct {
	events []Event
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// LinkDown schedules a link failure at time at.
func (p *Plan) LinkDown(at eventsim.Time, a, b topology.NodeID) *Plan {
	p.events = append(p.events, Event{At: at, Kind: LinkDown, A: a, B: b})
	return p
}

// LinkUp schedules a link repair at time at.
func (p *Plan) LinkUp(at eventsim.Time, a, b topology.NodeID) *Plan {
	p.events = append(p.events, Event{At: at, Kind: LinkUp, A: a, B: b})
	return p
}

// NodeDown schedules a node crash at time at.
func (p *Plan) NodeDown(at eventsim.Time, n topology.NodeID) *Plan {
	p.events = append(p.events, Event{At: at, Kind: NodeDown, A: n, B: topology.None})
	return p
}

// NodeUp schedules a node restart at time at.
func (p *Plan) NodeUp(at eventsim.Time, n topology.NodeID) *Plan {
	p.events = append(p.events, Event{At: at, Kind: NodeUp, A: n, B: topology.None})
	return p
}

// GroupDown schedules a correlated failure: every link of the group
// goes down atomically at time at.
func (p *Plan) GroupDown(at eventsim.Time, g Group) *Plan {
	p.events = append(p.events, Event{At: at, Kind: GroupDown, A: topology.None, B: topology.None, Group: g})
	return p
}

// GroupUp schedules the group's repair at time at. Down/up cycles of
// one group must not overlap (the injector tracks one outstanding
// outage per group name).
func (p *Plan) GroupUp(at eventsim.Time, g Group) *Plan {
	p.events = append(p.events, Event{At: at, Kind: GroupUp, A: topology.None, B: topology.None, Group: g})
	return p
}

// Events returns the plan's events sorted by (time, insertion order).
func (p *Plan) Events() []Event {
	out := append([]Event(nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Observer receives every applied fault event, after the substrate
// change and routing reconvergence took effect.
type Observer func(ev Event)

// Injector applies a Plan to a running network. Create with
// NewInjector, optionally register hooks, then Schedule before (or
// while) the simulation runs.
type Injector struct {
	net        *netsim.Network
	plan       *Plan
	observers  []Observer
	onNodeDown []func(topology.NodeID)
	// tookDown remembers, per crashed node, the incident links this
	// injector disabled for it, so NodeUp restores exactly those and
	// leaves independently failed links down.
	tookDown map[topology.NodeID][][2]topology.NodeID
	// groupTook is the same bookkeeping per shared-risk group name.
	groupTook map[string][][2]topology.NodeID
	applied   int
}

// NewInjector binds a plan to a network.
func NewInjector(net *netsim.Network, plan *Plan) *Injector {
	return &Injector{
		net:       net,
		plan:      plan,
		tookDown:  make(map[topology.NodeID][][2]topology.NodeID),
		groupTook: make(map[string][][2]topology.NodeID),
	}
}

// OnEvent registers an observer called for every applied event.
func (in *Injector) OnEvent(o Observer) { in.observers = append(in.observers, o) }

// OnNodeDown registers a hook called when a node crashes, after the
// substrate change. Protocol layers use it to model state loss
// (e.g. core.Router.Reset).
func (in *Injector) OnNodeDown(f func(topology.NodeID)) { in.onNodeDown = append(in.onNodeDown, f) }

// Applied returns how many events have fired so far.
func (in *Injector) Applied() int { return in.applied }

// Schedule queues every plan event on the network's simulation clock.
// Events in the past panic (eventsim semantics): fault plans are built
// before the phase of the run they perturb.
func (in *Injector) Schedule() {
	sim := in.net.Sim()
	for _, ev := range in.plan.Events() {
		ev := ev
		sim.At(ev.At, func() { in.apply(ev) })
	}
}

// faultf emits one structured fault event as an effect of c; the
// rendered detail keeps the legacy "FAULT ..." trace line verbatim so
// existing trace consumers keep working, while counters and the flight
// recorder see a typed KindFault.
func (in *Injector) faultf(c obs.Causal, format string, args ...any) {
	if in.net.Observer() == nil {
		return
	}
	in.net.Emit(c, obs.Event{Kind: obs.KindFault, Detail: fmt.Sprintf(format, args...)})
}

// apply executes one fault event: substrate first, then routing
// reconvergence, then hooks and observers.
//
// A fault is a spontaneous root cause: apply roots a causal episode
// before touching anything, and its KindFault event is the episode's
// root.
func (in *Injector) apply(ev Event) {
	c := in.net.Root()
	g := in.net.Topology()
	switch ev.Kind {
	case LinkDown:
		in.faultf(c, "FAULT %s %s-%s", ev.Kind, in.net.NodeName(ev.A), in.net.NodeName(ev.B))
		g.SetLinkEnabled(ev.A, ev.B, false)
		in.reconverge([2]topology.NodeID{ev.A, ev.B})
	case LinkUp:
		in.faultf(c, "FAULT %s %s-%s", ev.Kind, in.net.NodeName(ev.A), in.net.NodeName(ev.B))
		g.SetLinkEnabled(ev.A, ev.B, true)
		in.reconverge([2]topology.NodeID{ev.A, ev.B})
	case NodeDown:
		in.faultf(c, "FAULT %s %s", ev.Kind, in.net.NodeName(ev.A))
		var took [][2]topology.NodeID
		for _, nb := range g.Neighbors(ev.A) {
			if g.LinkEnabled(ev.A, nb.To) {
				g.SetLinkEnabled(ev.A, nb.To, false)
				took = append(took, [2]topology.NodeID{ev.A, nb.To})
			}
		}
		in.tookDown[ev.A] = took
		in.net.SetNodeUp(ev.A, false)
		in.reconverge(took...)
		for _, f := range in.onNodeDown {
			f(ev.A)
		}
	case NodeUp:
		in.faultf(c, "FAULT %s %s", ev.Kind, in.net.NodeName(ev.A))
		took := in.tookDown[ev.A]
		delete(in.tookDown, ev.A)
		for _, l := range took {
			g.SetLinkEnabled(l[0], l[1], true)
		}
		in.net.SetNodeUp(ev.A, true)
		in.reconverge(took...)
	case GroupDown:
		in.faultf(c, "FAULT %s %s (%d links)", ev.Kind, ev.Group.Name, len(ev.Group.Links))
		var took [][2]topology.NodeID
		for _, l := range ev.Group.Links {
			if g.LinkEnabled(l[0], l[1]) {
				g.SetLinkEnabled(l[0], l[1], false)
				took = append(took, l)
			}
		}
		in.groupTook[ev.Group.Name] = took
		in.reconverge(took...)
	case GroupUp:
		in.faultf(c, "FAULT %s %s (%d links)", ev.Kind, ev.Group.Name, len(ev.Group.Links))
		took := in.groupTook[ev.Group.Name]
		delete(in.groupTook, ev.Group.Name)
		for _, l := range took {
			g.SetLinkEnabled(l[0], l[1], true)
		}
		in.reconverge(took...)
	default:
		panic(fmt.Sprintf("faults: unknown event kind %d", ev.Kind))
	}
	in.applied++
	for _, o := range in.observers {
		o(ev)
	}
}

// reconverge updates the unicast tables for the changed links within
// the event: the IGP converges instantly.
func (in *Injector) reconverge(changed ...[2]topology.NodeID) {
	if len(changed) == 0 {
		return
	}
	in.net.Routing().RecomputeLinks(changed...)
}
