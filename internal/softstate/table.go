package softstate

import (
	"fmt"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/obs"
)

// Entry is one row of a Multicast Forwarding Table: a downstream node
// (a receiver or the next branching router) plus the two-phase soft
// timer. The mark fields belong to HBH's fusion rules, which live in
// package core; REUNITE never sets them.
type Entry struct {
	// Node is the unicast address this entry forwards to.
	Node addr.Addr
	// Marked entries forward tree messages but not data: the fusion
	// mechanism marks a receiver here once a downstream branching node
	// has taken over its data delivery.
	Marked bool
	// ServedBy records the branching node whose fusion marked this
	// entry. If that relay's own entry dies, or its fusions stop
	// listing this node, the mark is lifted so data flows directly
	// again instead of silently starving the receiver.
	ServedBy addr.Addr
	// MarkConfirmed is the last time a fusion from ServedBy re-listed
	// this node: the mark's own soft-state refresh. A healthy relay
	// re-fuses every tree interval; a mark not re-confirmed within T1
	// has lost its relay (it collapsed to non-branching, crashed, or
	// silently dropped the member) and lapses at the member's next join
	// refresh. Without this, a mark is the one piece of hard state in
	// the protocol — and a relay whose table entry is kept alive by
	// other traffic (a border router with local IGMP members
	// join-refreshes its own address forever) can starve its former
	// children permanently.
	MarkConfirmed eventsim.Time
	// Timer is the (t1, t2) soft-state pair. Stale entries forward
	// data but emit no downstream tree message.
	Timer *clock.SoftTimer
	// Cause is the causal provenance of this entry: the episode and
	// step of the join (or fusion) that installed or last refreshed it.
	// Timer-driven work on the entry — the periodic tree refresh above
	// all — is an effect of this pair, so downstream events attribute to
	// the member's episode rather than appearing spontaneous.
	Cause obs.Causal
}

// Stale reports whether the entry's t1 phase has expired.
func (e *Entry) Stale() bool { return e.Timer.Stale() }

// MFT is a Multicast Forwarding Table for one channel: the data-plane
// state of a branching node. Iteration follows insertion order — join
// order, which REUNITE's "first receiver" semantics rely on — so
// simulations are deterministic (Go map iteration is randomised).
type MFT struct {
	entries []*Entry
	index   map[addr.Addr]*Entry
	// version counts membership mutations (Add/Remove/Destroy). The
	// shared slice Entries returns is only safe to hold across code
	// that cannot mutate the table; holders that might interleave with
	// mutations compare Version before and after (the onData
	// replication loops) or revalidate entries against the live index.
	version uint64
}

// NewMFT returns an empty table.
func NewMFT() *MFT {
	return &MFT{index: make(map[addr.Addr]*Entry)}
}

// Len returns the number of live entries.
func (t *MFT) Len() int { return len(t.entries) }

// Get returns the entry for node, or nil.
func (t *MFT) Get(node addr.Addr) *Entry { return t.index[node] }

// Add appends a new entry with the given timer. Panics on duplicates:
// callers must Get first.
func (t *MFT) Add(node addr.Addr, timer *clock.SoftTimer) *Entry {
	if t.index[node] != nil {
		panic(fmt.Sprintf("softstate: duplicate MFT entry %v", node))
	}
	e := &Entry{Node: node, Timer: timer}
	t.entries = append(t.entries, e)
	t.index[node] = e
	t.version++
	return e
}

// Remove deletes the entry for node, cancelling its timer; survivors
// keep their order. Reports whether an entry existed.
func (t *MFT) Remove(node addr.Addr) bool {
	e := t.index[node]
	if e == nil {
		return false
	}
	e.Timer.Cancel()
	delete(t.index, node)
	for i, x := range t.entries {
		if x == e {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			break
		}
	}
	t.version++
	return true
}

// Entries returns the live entries in insertion order. The slice is
// shared: callers iterate, they do not mutate, and they must not hold
// it across table mutations (guard with Version when in doubt).
func (t *MFT) Entries() []*Entry { return t.entries }

// Version returns the membership mutation counter. Equal values before
// and after an iteration prove the entry set did not change under it.
func (t *MFT) Version() uint64 { return t.version }

// AppendNodes appends the entry addresses, in insertion order, to dst
// and returns the extended slice. Used to build fusion messages ("the
// fusion messages produced by B contain all the nodes that B maintains
// in its MFT") in a slice the sender reuses.
func (t *MFT) AppendNodes(dst []addr.Addr) []addr.Addr {
	for _, e := range t.entries {
		dst = append(dst, e.Node)
	}
	return dst
}

// Destroy cancels every timer and empties the table.
func (t *MFT) Destroy() {
	for _, e := range t.entries {
		e.Timer.Cancel()
	}
	t.entries = nil
	t.index = make(map[addr.Addr]*Entry)
	t.version++
}

// String renders the table for traces: "[r1* r3(m) H3]" where *
// flags stale and (m) marked.
func (t *MFT) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range t.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.Node.String())
		if e.Stale() {
			b.WriteByte('*')
		}
		if e.Marked {
			b.WriteString("(m)")
		}
	}
	b.WriteByte(']')
	return b.String()
}

// MCT is the Multicast Control Table entry of a non-branching router:
// the single downstream target whose tree messages traverse this node,
// kept in the control plane only (never used for data forwarding).
type MCT struct {
	// Node is the tree target recorded here.
	Node addr.Addr
	// Timer is the (t1, t2) pair refreshed by passing tree messages.
	Timer *clock.SoftTimer
	// Cause is the causal provenance of the entry (see Entry.Cause).
	Cause obs.Causal
}

// Stale reports whether the t1 phase has expired.
func (m *MCT) Stale() bool { return m.Timer.Stale() }

// seenDataCap is the span of a duplicate-suppression window in
// sequence numbers.
const seenDataCap = 4096

// Window is a sliding duplicate-suppression window over one stream of
// sequence numbers: a bitmap of the seenDataCap numbers ending at the
// highest recorded so far. It never grows, and it slides rather than
// being discarded when full, so a number within seenDataCap of the
// newest is never forgotten; one further behind than that is too old to
// remember: it reads as fresh and is not recorded. Distances are
// serial-number arithmetic, so the stream may wrap uint32. The zero
// value is an empty window.
type Window struct {
	bits  [seenDataCap / 64]uint64 // bit seq%seenDataCap, for seq in (top-seenDataCap, top]
	top   uint32
	begun bool
}

// Seen records seq and reports whether it was already recorded.
func (w *Window) Seen(seq uint32) bool {
	word, bit := &w.bits[seq%seenDataCap/64], uint64(1)<<(seq%64)
	switch ahead := int32(seq - w.top); {
	case !w.begun || ahead >= seenDataCap:
		*w = Window{top: seq, begun: true}
	case ahead > 0:
		// Slide: the numbers entering the window take over the bits of
		// the ones leaving it.
		for s := w.top + 1; s != seq+1; s++ {
			w.bits[s%seenDataCap/64] &^= 1 << (s % 64)
		}
		w.top = seq
	case w.top-seq >= seenDataCap:
		return false
	}
	seen := *word&bit != 0
	*word |= bit
	return seen
}

// Dedup is a replicating node's duplicate-suppression state: one
// Window per channel it replicates. Two branching nodes on each other's
// delivery paths (possible while soft state is transiently
// inconsistent, and under asymmetric routing) would otherwise ping-pong
// fresh copies forever. The zero value is ready.
type Dedup map[addr.Channel]*Window

// Window returns ch's window, creating it on first use.
func (d *Dedup) Window(ch addr.Channel) *Window {
	if *d == nil {
		*d = make(Dedup)
	}
	w := (*d)[ch]
	if w == nil {
		w = &Window{}
		(*d)[ch] = w
	}
	return w
}

// Cached is Window through slot, the pointer a router keeps in the
// channel record it looks up for every data packet anyway: filled from
// the map on first use, it answers from then on, so a data arrival
// costs one map lookup, not one more here. The map stays the owner
// (Drop, the teardown audit): whoever drops the channel must discard
// the record holding slot with it.
func (d *Dedup) Cached(slot **Window, ch addr.Channel) *Window {
	if *slot == nil {
		*slot = d.Window(ch)
	}
	return *slot
}

// Drop forgets ch's window. Routers call it when the channel's last
// table goes: a window that outlives the channel leaks per dead channel
// and, worse, makes a router that later re-joins the channel's tree
// silently swallow re-sent sequence numbers.
func (d *Dedup) Drop(ch addr.Channel) { delete(*d, ch) }
