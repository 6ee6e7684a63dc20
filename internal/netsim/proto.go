package netsim

import (
	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// ProtoNode is the node-side surface the protocol engines (core,
// reunite, igmp, pim) program against. It is everything a resident
// protocol entity may do: inspect its locus, send packets, schedule
// timers through the abstract clock, and emit observability events.
//
// Causes travel as values. Handle receives the arriving packet's causal
// pair; the engine passes it on as the cause of what the packet makes
// it emit and send, and records it in the table entries the packet
// installs or refreshes (softstate.Entry.Cause), so a timer-driven
// refresh acting on an entry's behalf later is an effect of the episode
// that put it there. An action with no packet behind it — a timer that
// fired, an application that joined — takes a fresh episode from Root.
//
// One implementation exists, *Node, with one packet ladder. The
// simulator runs it over its reference wire; the live runtime
// (internal/live) runs the same nodes, each on a goroutine, a clock and
// a shard of its own, over the frame wire (NewWired). The engines are
// compiled once against this interface and run unmodified in both
// worlds; the equivalence tests in internal/live pin that the two wires
// produce identical protocol tables.
type ProtoNode interface {
	// ID returns the node's topology identifier.
	ID() topology.NodeID
	// Addr returns the node's unicast address.
	Addr() addr.Addr
	// Name returns the node's human-readable name.
	Name() string

	// Clock returns the node's timer clock. All soft-state timers and
	// refresh tickers are scheduled against it.
	Clock() clock.Clock
	// Topology returns the graph the node lives in.
	Topology() *topology.Graph
	// Routing returns the unicast routing substrate.
	Routing() unicast.Router

	// AddHandler registers a protocol handler on the node.
	AddHandler(h Handler)
	// SetDeliver installs the local delivery sink.
	SetDeliver(d DeliverFunc)

	// Send originates a packet from this node toward msg.Dst as an
	// effect of c; the zero c, a send with no cause, roots an episode of
	// its own. A data packet, join, tree or fusion is copied before the
	// call returns, so an engine builds every message it sends in one
	// value it rewrites in between; any other message belongs to the
	// transport from here on.
	Send(c obs.Causal, msg packet.Message)
	// SendDirect pushes a packet one hop to an adjacent node, bypassing
	// unicast routing (the leaf LAN hop). c and msg are taken as by Send.
	SendDirect(c obs.Causal, to topology.NodeID, msg packet.Message)

	// Observer returns the observability pipeline sink, or nil. Engines
	// check it before assembling event details that cost anything to
	// build (formatted strings, slices).
	Observer() *obs.Observer
	// Root opens a fresh causal episode for a spontaneous action at this
	// node and returns its root pair.
	Root() obs.Causal
	// Emit emits ev at this node as an effect of c and returns ev's own
	// causal pair.
	Emit(c obs.Causal, ev obs.Event) obs.Causal
}
