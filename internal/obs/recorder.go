package obs

import (
	"fmt"
	"sort"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/packet"
)

// DefaultRecorderDepth is the per-node ring size when the caller does
// not choose one: enough to hold several refresh cycles of protocol
// chatter around the moment something goes wrong.
const DefaultRecorderDepth = 64

// Recorder is the flight recorder: a fixed-size ring of the most recent
// events per node, stored by value and rendered only when Dump asks.
// Recording copies the event into its slot and formats nothing, so an
// observed event costs a map lookup and a copy. The one thing a slot
// must not hold is the event's packet.Message: the simulator forwards
// packets zero-copy and rewrites them in place (a Tree's Src changes at
// every regenerating hop), so a retained pointer would silently revise
// history. The slot keeps a msgSnap instead — the fields packet.Format
// reads, copied at record time. When an invariant violation or a
// fault-attributed drop fires, Dump reconstructs what the node saw
// leading up to it.
type Recorder struct {
	depth int
	rings map[addr.Addr]*ring
}

type ring struct {
	name  string
	slots []slot
	next  int
	total int
}

// slot is one recorded event: the Event with Msg cleared, and the
// packet it carried as a snapshot.
type slot struct {
	ev  Event
	msg msgSnap
}

// msgKind says which packet type a msgSnap was taken from.
type msgKind uint8

const (
	msgNone msgKind = iota
	msgJoin
	msgTree
	msgFusion
	msgData
	msgQuery
	msgReport
)

// msgSnap is a fixed-size copy of exactly what packet.Format reads of a
// message. rs belongs to the slot: capture reuses its capacity, so a
// ring that has seen its largest fusion allocates no more.
type msgSnap struct {
	kind msgKind
	hdr  packet.Header
	a    addr.Addr   // Join.R, Tree.R, Fusion.Bp
	seq  uint32      // Data.Seq
	size int         // len(Data.Payload)
	flag bool        // Query.General, Report.Leave
	rs   []addr.Addr // Fusion.Rs
}

func (s *msgSnap) capture(m packet.Message) {
	switch v := m.(type) {
	case nil:
		s.kind = msgNone
	case *packet.Join:
		s.kind, s.hdr, s.a = msgJoin, v.Header, v.R
	case *packet.Tree:
		s.kind, s.hdr, s.a = msgTree, v.Header, v.R
	case *packet.Fusion:
		s.kind, s.hdr, s.a = msgFusion, v.Header, v.Bp
		s.rs = append(s.rs[:0], v.Rs...)
	case *packet.Data:
		s.kind, s.hdr, s.seq, s.size = msgData, v.Header, v.Seq, len(v.Payload)
	case *packet.Query:
		s.kind, s.hdr, s.flag = msgQuery, v.Header, v.General
	case *packet.Report:
		s.kind, s.hdr, s.flag = msgReport, v.Header, v.Leave
	default:
		panic(fmt.Sprintf("obs: flight recorder cannot snapshot %T", m))
	}
}

// message rebuilds a packet that packet.Format renders as it would have
// rendered the original at record time (of a payload it reads only the
// length).
func (s *msgSnap) message() packet.Message {
	switch s.kind {
	case msgJoin:
		return &packet.Join{Header: s.hdr, R: s.a}
	case msgTree:
		return &packet.Tree{Header: s.hdr, R: s.a}
	case msgFusion:
		return &packet.Fusion{Header: s.hdr, Bp: s.a, Rs: s.rs}
	case msgData:
		return &packet.Data{Header: s.hdr, Seq: s.seq, Payload: make([]byte, s.size)}
	case msgQuery:
		return &packet.Query{Header: s.hdr, General: s.flag}
	case msgReport:
		return &packet.Report{Header: s.hdr, Leave: s.flag}
	default:
		return nil
	}
}

// NewRecorder builds a recorder keeping the last perNode events per
// node (DefaultRecorderDepth if perNode <= 0).
func NewRecorder(perNode int) *Recorder {
	if perNode <= 0 {
		perNode = DefaultRecorderDepth
	}
	return &Recorder{depth: perNode, rings: make(map[addr.Addr]*ring)}
}

// Depth returns the per-node ring capacity.
func (r *Recorder) Depth() int { return r.depth }

// Record appends ev to its node's ring. Events without a node (pure
// notes) are kept under the zero address so nothing is lost.
func (r *Recorder) Record(ev Event) { r.record(&ev) }

func (r *Recorder) record(ev *Event) {
	rg := r.rings[ev.Node]
	if rg == nil {
		rg = &ring{name: ev.NodeName, slots: make([]slot, 0, r.depth)}
		r.rings[ev.Node] = rg
	}
	if rg.name == "" {
		rg.name = ev.NodeName
	}
	if rg.next == len(rg.slots) { // still filling: next < depth
		rg.slots = append(rg.slots, slot{})
	}
	sl := &rg.slots[rg.next]
	if rg.next++; rg.next == r.depth {
		rg.next = 0
	}
	sl.ev = *ev
	sl.ev.Msg = nil
	sl.msg.capture(ev.Msg)
	rg.total++
}

// Dump renders the ring of one node, oldest first, with a header
// giving the node and how much history scrolled past the ring.
func (r *Recorder) Dump(node addr.Addr) string {
	rg := r.rings[node]
	if rg == nil || rg.total == 0 {
		return fmt.Sprintf("flight recorder: no events recorded for %v", node)
	}
	var b strings.Builder
	label := rg.name
	if label == "" {
		label = node.String()
	} else {
		label = fmt.Sprintf("%s (%v)", rg.name, node)
	}
	fmt.Fprintf(&b, "flight recorder: %s — last %d of %d events\n",
		label, len(rg.slots), rg.total)
	// A full ring's oldest slot is the one the next record overwrites;
	// a filling ring's is slot 0, and its next is len(slots).
	first := rg.next % len(rg.slots)
	for i := range rg.slots {
		sl := &rg.slots[(first+i)%len(rg.slots)]
		ev := sl.ev
		ev.Msg = sl.msg.message()
		b.WriteString(stamp(ev))
		b.WriteString(Line(ev))
		b.WriteByte('\n')
	}
	return b.String()
}

// DumpAll renders every node's ring, nodes in address order.
func (r *Recorder) DumpAll() string {
	nodes := make([]addr.Addr, 0, len(r.rings))
	for a := range r.rings {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var b strings.Builder
	for _, a := range nodes {
		b.WriteString(r.Dump(a))
	}
	return b.String()
}
