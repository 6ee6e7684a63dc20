// Package obs is the simulator's observability layer: a single
// structured event pipeline that the transport (netsim), the protocol
// engines (core, reunite, pim) and the fault injector all emit into,
// fanned out to pluggable sinks (human-readable text, JSONL), a
// counter/time-series registry exported in Prometheus text format, and
// a per-node flight recorder whose ring buffers are dumped with full
// context when an invariant violation or fault-attributed drop fires.
//
// Three design rules govern the package:
//
//  1. The disabled path costs nothing. An absent Observer is a nil
//     pointer; every emission site guards with a nil check (or calls
//     Emit on the nil receiver, which returns immediately), builds no
//     arguments eagerly, and allocates nothing. The per-hop forwarding
//     benchmark holds this at 0 allocs/op.
//
//  2. Events are facts, not strings. An Event carries raw protocol
//     fields (node, channel, peer, cause, message); rendering happens
//     in the sinks, only when a sink is attached. Correlation is by
//     <S,G> channel plus node — the pair every protocol message already
//     carries — so one grep follows a receiver's whole lifecycle.
//
//  3. The simulator stays deterministic. Observation consumes no
//     randomness and schedules no events (samplers are the one
//     exception, and they are opt-in, bounded, and never enabled while
//     generating the committed result tables).
package obs

import (
	"fmt"
	"sync"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

// Kind classifies an observed event.
type Kind uint8

// Transport-level kinds (emitted by netsim) followed by protocol-level
// kinds (emitted by the engines) and the structural kinds the observer
// itself produces.
const (
	// KindSend is a packet origination at a node.
	KindSend Kind = iota
	// KindSendDirect is a source-routed single-link transmission.
	KindSendDirect
	// KindForward is one link traversal (per-hop).
	KindForward
	// KindConsume is a handler consuming a packet (receiver or
	// branching node).
	KindConsume
	// KindDeliver is a local delivery at the destination address.
	KindDeliver
	// KindDrop is a packet death; Cause says why.
	KindDrop
	// KindJoinSend is a receiver or branching router emitting a join.
	KindJoinSend
	// KindJoinIntercept is a branching router intercepting a join.
	KindJoinIntercept
	// KindJoinAdmit is the channel root installing or refreshing a
	// member from a join that reached it.
	KindJoinAdmit
	// KindTreeSend is a tree refresh emission (root or regenerating
	// branching node).
	KindTreeSend
	// KindTreeAdopt is a branching router adopting a transiting tree
	// target into its MFT.
	KindTreeAdopt
	// KindBranch is a non-branching -> branching transition.
	KindBranch
	// KindCollapse is a branching -> non-branching transition (or table
	// destruction).
	KindCollapse
	// KindFusionSend is a branching candidate announcing itself
	// upstream.
	KindFusionSend
	// KindFusionAccept is an upstream node splicing the candidate into
	// the tree (marking the listed targets).
	KindFusionAccept
	// KindTableAdd is a forwarding-table entry installation.
	KindTableAdd
	// KindTableRemove is a forwarding-table entry removal.
	KindTableRemove
	// KindReplicate is a branching node emitting data copies
	// (recursive unicast). Peer is the copy target.
	KindReplicate
	// KindFault is a fault-injection event (link or node transition).
	KindFault
	// KindNote is a free-form annotation in Detail; a replay reads a
	// kind name it does not know as one.
	KindNote
	// KindRecorderDump is a flight-recorder dump pushed into the trace
	// stream (fault-attributed drop with DumpOnFaultDrop enabled).
	KindRecorderDump
	// KindMarkLift is the retraction of a fusion mark: the relay that
	// served the entry no longer lists it (or no longer sits on the
	// forward path), so data flows to the member directly again.
	KindMarkLift

	// numKinds bounds the kinds above; a new kind goes before it.
	numKinds
)

// String returns the stable kebab-case name used by the JSONL sink and
// the counter registry.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindSendDirect:
		return "send-direct"
	case KindForward:
		return "forward"
	case KindConsume:
		return "consume"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindJoinSend:
		return "join-send"
	case KindJoinIntercept:
		return "join-intercept"
	case KindJoinAdmit:
		return "join-admit"
	case KindTreeSend:
		return "tree-send"
	case KindTreeAdopt:
		return "tree-adopt"
	case KindBranch:
		return "become-branching"
	case KindCollapse:
		return "collapse"
	case KindFusionSend:
		return "fusion-send"
	case KindFusionAccept:
		return "fusion-accept"
	case KindTableAdd:
		return "table-add"
	case KindTableRemove:
		return "table-remove"
	case KindReplicate:
		return "replicate"
	case KindFault:
		return "fault"
	case KindNote:
		return "note"
	case KindRecorderDump:
		return "recorder-dump"
	case KindMarkLift:
		return "mark-lift"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Cause attributes a KindDrop event.
type Cause uint8

// Drop causes, mirroring the netsim.Stats drop counters.
const (
	CauseNone Cause = iota
	// CauseNoRoute is an unroutable destination.
	CauseNoRoute
	// CauseHopLimit is hop-budget exhaustion (a loop, usually).
	CauseHopLimit
	// CauseLinkDown is a packet dying on an administratively failed
	// link (fault injection).
	CauseLinkDown
	// CauseNodeDown is a packet dropped at or by a crashed node.
	CauseNodeDown
	// CauseNonUnicast is an origination with a non-unicast destination.
	CauseNonUnicast
	// CauseUnclaimedMulticast is a multicast-addressed packet no
	// handler claimed.
	CauseUnclaimedMulticast
	// CauseAdvLoss is a control packet dropped by the control-plane
	// adversary (burst or uniform loss).
	CauseAdvLoss

	// numCauses bounds the causes above; a new cause goes before it.
	numCauses
)

// String returns the stable name used in counter labels.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return ""
	case CauseNoRoute:
		return "no-route"
	case CauseHopLimit:
		return "hop-limit"
	case CauseLinkDown:
		return "link-down"
	case CauseNodeDown:
		return "node-down"
	case CauseNonUnicast:
		return "non-unicast"
	case CauseUnclaimedMulticast:
		return "unclaimed-multicast"
	case CauseAdvLoss:
		return "adv-loss"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// FaultAttributed reports whether the cause names an injected fault
// (the causes that trigger an automatic flight-recorder dump).
func (c Cause) FaultAttributed() bool {
	return c == CauseLinkDown || c == CauseNodeDown
}

// Event is one observed fact. Fields are raw protocol values; sinks
// render them. The zero value of any field means "not applicable".
type Event struct {
	// At is the virtual timestamp, stamped by the Observer.
	At eventsim.Time
	// Kind classifies the event.
	Kind Kind
	// Node is where the event happened; NodeName its topology label.
	Node     addr.Addr
	NodeName string
	// Peer is the other node involved (link peer, upstream target,
	// copy destination, table entry); PeerName its label when known.
	Peer     addr.Addr
	PeerName string
	// Channel is the <S,G> channel the event belongs to (zero for
	// channel-less transport events).
	Channel addr.Channel
	// Seq is the data sequence number for data-packet events.
	Seq uint32
	// Cause attributes drops.
	Cause Cause
	// Msg is the packet involved, if any. Sinks must not mutate or
	// retain it past the Emit call (the simulator forwards messages
	// zero-copy and may rewrite them in place later).
	Msg packet.Message
	// Episode, Step and ParentStep place the event in the causal DAG of
	// its episode (see causal.go): Episode names the cascade the event
	// belongs to, Step is the event's own node in the DAG, ParentStep
	// the event that caused it. All zero when causal tracing is off or
	// the event is unattributed.
	Episode    EpisodeID
	Step       StepID
	ParentStep StepID
	// Detail is a free-form annotation: protocol rules, preformatted
	// fault text.
	Detail string
}

// Sink consumes rendered events. Sinks run synchronously inside the
// simulation loop and must not mutate the event's Msg.
type Sink interface {
	Emit(ev Event)
}

// Observer is the fan-out point: transport and protocol code emit
// events into it; it stamps the virtual time and distributes to the
// attached sinks, the counter registry and the flight recorder.
//
// A nil *Observer is the disabled layer: Emit is a no-op, and every
// emission site is expected to guard argument construction behind a
// nil check so the hot path stays allocation free.
type Observer struct {
	now      func() eventsim.Time
	sinks    []Sink
	filter   func(*Event) bool
	counters *Counters
	recorder *Recorder
	converge *ConvergeTracker
	latency  *Latency
	// lock, when set, serialises Emit across goroutines. The
	// single-threaded simulator never sets it; the live runtime shares
	// its own emission mutex here so engine code that emits directly
	// (protocol annotations) is serialised with the runtime's transport
	// events and with telemetry scrapes. Paths that already hold that
	// mutex use EmitLocked.
	lock sync.Locker
	// episodeSeq and stepSeq allocate causal episode and step ids;
	// plain counters, so causal stamping costs no allocation.
	episodeSeq uint64
	stepSeq    uint64
	// dumpOnFaultDrop pushes a flight-recorder dump into the sinks when
	// a fault-attributed drop is observed.
	dumpOnFaultDrop bool
}

// New builds an observer stamping events with the virtual clock now.
// now may be nil when the simulation does not exist yet (CLI startup):
// events emitted before SetNow binds a clock carry time zero, and
// netsim.SetObserver rebinds the network's own clock on install.
func New(now func() eventsim.Time) *Observer {
	return &Observer{now: now}
}

// SetNow rebinds the virtual clock used to stamp events.
func (o *Observer) SetNow(now func() eventsim.Time) { o.now = now }

// AddSink attaches a sink.
func (o *Observer) AddSink(s Sink) { o.sinks = append(o.sinks, s) }

// RemoveSink detaches a previously added sink (pointer identity).
func (o *Observer) RemoveSink(s Sink) {
	for i, have := range o.sinks {
		if have == s {
			o.sinks = append(o.sinks[:i], o.sinks[i+1:]...)
			return
		}
	}
}

// SetFilter installs a sink-side predicate: events failing it are not
// handed to sinks (counters and the flight recorder still see
// everything — dropping context there would defeat their purpose).
func (o *Observer) SetFilter(f func(*Event) bool) { o.filter = f }

// EnableCounters attaches (and returns) the counter registry.
func (o *Observer) EnableCounters() *Counters {
	if o.counters == nil {
		o.counters = NewCounters()
	}
	return o.counters
}

// Counters returns the registry (nil when not enabled).
func (o *Observer) Counters() *Counters { return o.counters }

// EnableRecorder attaches a flight recorder keeping the last perNode
// events per node, and returns it.
func (o *Observer) EnableRecorder(perNode int) *Recorder {
	if o.recorder == nil {
		o.recorder = NewRecorder(perNode)
	}
	return o.recorder
}

// Recorder returns the flight recorder (nil when not enabled).
func (o *Observer) Recorder() *Recorder { return o.recorder }

// SetDumpOnFaultDrop makes fault-attributed drops (link-down,
// node-down) push the dropping node's flight-recorder dump into the
// sinks, so the trace shows what led up to every blackout without
// anyone asking.
func (o *Observer) SetDumpOnFaultDrop(on bool) { o.dumpOnFaultDrop = on }

// SetEmitLock installs the emission lock (see the Observer doc). Set
// it before any concurrent emission starts.
func (o *Observer) SetEmitLock(mu sync.Locker) { o.lock = mu }

// Emit records one event: timestamp, flight recorder, counters, then
// sinks (filtered). Safe on a nil observer. When an emission lock is
// installed, Emit acquires it — callers already holding that lock must
// use EmitLocked instead.
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	if o.lock != nil {
		o.lock.Lock()
		defer o.lock.Unlock()
	}
	o.emit(&ev)
}

// EmitLocked is Emit for callers that already hold the installed
// emission lock (the live runtime's own emission paths). It takes ev by
// reference and stamps its time there, so the per-hop emission paths do
// not copy an event to hand it over.
func (o *Observer) EmitLocked(ev *Event) {
	if o == nil {
		return
	}
	o.emit(ev)
}

// emit fans one event out. ev stays on the caller's stack: the
// registries read it through the pointer and keep nothing, sinks get a
// copy, and only an installed filter with a sink to feed is handed a
// pointer of its own (a func value's argument escapes).
func (o *Observer) emit(ev *Event) {
	if o.now != nil {
		ev.At = o.now()
	}
	if o.recorder != nil {
		o.recorder.record(ev)
	}
	if o.counters != nil {
		o.counters.apply(ev)
	}
	if o.converge != nil {
		o.converge.apply(ev)
	}
	if o.latency != nil {
		o.latency.apply(ev)
	}
	if len(o.sinks) > 0 && o.passes(ev) {
		for _, s := range o.sinks {
			s.Emit(*ev)
		}
	}
	if o.dumpOnFaultDrop && o.recorder != nil &&
		ev.Kind == KindDrop && ev.Cause.FaultAttributed() {
		dump := Event{
			At: ev.At, Kind: KindRecorderDump,
			Node: ev.Node, NodeName: ev.NodeName, Channel: ev.Channel,
			Cause: ev.Cause, Detail: o.recorder.Dump(ev.Node),
		}
		for _, s := range o.sinks {
			s.Emit(dump)
		}
	}
}

// passes applies the sink-side filter, if one is installed.
func (o *Observer) passes(ev *Event) bool {
	if o.filter == nil {
		return true
	}
	probe := *ev
	return o.filter(&probe)
}
