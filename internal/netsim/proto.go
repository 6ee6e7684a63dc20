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

	// SendUnicast originates a packet from this node toward msg.Dst. A
	// *packet.Data is copied before the call returns, so a replicating
	// engine sends every copy from one value it rewrites in between; any
	// other message belongs to the transport from here on.
	SendUnicast(msg packet.Message)
	// SendDirect pushes a packet one hop to an adjacent node,
	// bypassing unicast routing (the leaf LAN hop). msg is taken as by
	// SendUnicast.
	SendDirect(to topology.NodeID, msg packet.Message)

	// Observer returns the observability pipeline sink, or nil.
	Observer() *obs.Observer
	// Observing reports whether an observer is attached.
	Observing() bool
	// EmitProto emits a protocol-level observability event at this
	// node and returns the causal stamp assigned to it.
	EmitProto(kind obs.Kind, ch addr.Channel, peer addr.Addr, seq uint32, detail string) obs.Causal
	// CausalContext returns the ambient causal context.
	CausalContext() obs.Causal
	// SetCausalContext replaces the ambient causal context.
	SetCausalContext(c obs.Causal)
	// RootEpisode roots a fresh causal episode for a spontaneous
	// action at this node and installs it as ambient context.
	RootEpisode() obs.Causal
	// StampCausal stamps ev with the ambient causal context.
	StampCausal(ev *obs.Event)
}
