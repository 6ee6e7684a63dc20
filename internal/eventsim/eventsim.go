// Package eventsim implements the discrete-event engine that drives the
// network simulator. Time is virtual ("time units", matching the
// paper's delay unit, which equals one unit of link cost) and advances
// only when events fire.
//
// Determinism: events at equal timestamps fire in scheduling order
// (FIFO tie-break via a monotonically increasing sequence number), so a
// simulation with a fixed RNG seed is exactly reproducible. This is the
// property every experiment in the paper reproduction relies on — 500
// runs per data point must be re-runnable bit-for-bit.
package eventsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Time is a virtual timestamp in time units. Link costs are integers in
// [1,10] but protocol timers use fractional offsets, so Time is a
// float64.
type Time float64

// Forever is a timestamp later than any event the simulator will fire.
const Forever Time = Time(math.MaxFloat64)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the horizon or event exhaustion was reached.
var ErrStopped = errors.New("eventsim: stopped")

// Event is a scheduled callback. The zero Event is inert.
type Event struct {
	sim *Sim
	// Exactly one of fn (At, After) and call is set. call is an
	// AfterCall whose delay takes it to the heap rather than a lane (see
	// Sim.lanes); such an event is recycled after firing: it never
	// escapes through a Handle, so recycling cannot confuse a canceller.
	fn    func()
	call  Caller
	index int // position in the heap, -1 when not queued
}

// Caller is a pre-bound event callback: scheduling one costs no closure
// allocation, which matters on the per-hop packet path where millions
// of events fire per simulation sweep.
type Caller interface{ Fire() }

// Handle identifies a scheduled event so it can be cancelled or
// re-armed. A zero Handle is inert: safe to Cancel, never Pending.
type Handle struct{ ev *Event }

// Cancel removes the event from the queue so it never fires.
// Cancelling an already-fired or already-cancelled event is a no-op.
// It reports whether the event was still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.ev.sim.queue.remove(h.ev.index)
	return true
}

// Pending reports whether the event is still queued to fire.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.index >= 0
}

// Reset re-arms the event to fire delay time units from now, whether it
// is pending, fired, cancelled or firing right now. It is Cancel
// followed by After with the same callback, minus the allocation: the
// event draws the sequence number After would have drawn, so the firing
// order of a simulation is the same either way. The zero Handle cannot
// be Reset.
func (h Handle) Reset(delay Time) {
	ev := h.ev
	s := ev.sim
	if k := s.key(s.after(delay), ev); ev.index < 0 {
		s.queue.push(k)
	} else {
		s.queue.fix(ev.index, k)
	}
}

// key is an event's place in the firing order. The timestamp is held as
// its IEEE bit pattern, which for the non-negative times a simulation
// runs through orders exactly as the floats do.
type key struct {
	at  uint64 // timeBits of the firing time
	seq uint64
}

// slot is one heap element: the event's firing key stored beside its
// pointer, so ordering two elements never dereferences an Event.
type slot struct {
	key
	ev *Event
}

// timeBits maps a timestamp to an integer of the same order. Adding
// zero turns a negative zero, whose sign bit would sort last, into the
// positive one it equals.
func timeBits(t Time) uint64 { return math.Float64bits(float64(t) + 0) }

// time returns the key's firing time.
func (a *key) time() Time { return Time(math.Float64frombits(a.at)) }

// before reports strict firing order.
func (a *key) before(b *key) bool { return a.borrow(b) != 0 }

// borrow is before as 1 or 0: whether (at, seq) of a is the lesser as
// one 128-bit number, read off the borrow of a - b. Two subtractions
// and no branch on the data.
func (a *key) borrow(b *key) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// eventQueue is a 4-ary min-heap of slots over (at, seq), holding
// pending events only: Cancel removes an event through the index it
// carries rather than leaving a flagged corpse to be popped later, so
// a soft-state timer refreshed every interval costs the queue one
// element, not one per refresh. The sift routines are hand-rolled
// rather than going through container/heap (interface dispatch of
// Less/Swap dominated whole-sweep CPU profiles) and move a hole instead
// of swapping. Because (at, seq) is a unique total order, any correct
// priority queue pops events in exactly the same sequence — the
// layout is invisible to determinism.
type eventQueue []slot

const arity = 4

// up places k at or above hole i.
func (h eventQueue) up(i int, k slot) {
	for i > 0 {
		p := (i - 1) / arity
		if !k.before(&h[p].key) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = k
	k.ev.index = i
}

// down places k at or below hole i.
func (h eventQueue) down(i int, k slot) {
	n := len(h)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		least := c
		for j := c + 1; j < end; j++ {
			// least = j if h[j] is before h[least], by mask: which child
			// is the least is a coin toss a branch predictor loses.
			least += (j - least) & -int(h[j].borrow(&h[least].key))
		}
		if !h[least].before(&k.key) {
			break
		}
		h[i] = h[least]
		h[i].ev.index = i
		i = least
	}
	h[i] = k
	k.ev.index = i
}

// fix places k at hole i, sifting whichever way restores heap order.
func (h eventQueue) fix(i int, k slot) {
	if i > 0 && k.before(&h[(i-1)/arity].key) {
		h.up(i, k)
	} else {
		h.down(i, k)
	}
}

// push adds k.
func (q *eventQueue) push(k slot) {
	*q = append(*q, slot{})
	q.up(len(*q)-1, k)
}

// remove deletes the element at i, refilling the hole with the last.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[i].ev.index = -1
	h[n] = slot{}
	*q = h[:n]
	if i < n {
		h[:n].fix(i, last)
	}
}

// laneCount is the number of lanes: an AfterCall delay that is a whole
// number below it rides the lane of that number, every other delay the
// heap. It covers every link cost the topologies draw (1 to 10) and the
// zero delay of a self-addressed send; one bit per lane fits busy.
const laneCount = 64

// lane is the FIFO of pending AfterCall events of one whole-number
// delay. Events enter it in scheduling order, and now and seq only
// grow, so each enters behind every event already in it in (at, seq)
// order: the head is the lane's least. The head's key is kept here, so
// that picking the least head reads the lane array and no node.
type lane struct {
	key
	head, tail *laneNode
}

// laneNode is one event in a lane. A fired node goes on the Sim's spare
// list and carries the next AfterCall: the packet path reuses a
// bounded population of nodes and allocates nothing per hop.
type laneNode struct {
	key
	call Caller
	next *laneNode
}

// Sim is a discrete-event simulator. The zero value is ready to use.
// Sim is not safe for concurrent use; the simulation model is strictly
// single-threaded (and so is NS-2's), which is what makes runs
// reproducible.
//
// Pending events are held in two places. The heap holds every event
// with a Handle (At, After, Reset) and every AfterCall whose delay is
// not a lane's. The lanes hold the rest of the AfterCall events — the
// packets in flight, nearly all of what a simulation fires. Run fires
// the lesser of the heap's root and the least lane head by the same
// (at, seq) order, so where an event waits never changes when it fires.
type Sim struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool
	fired   uint64
	// free recycles fired AfterCall events of the heap, so an AfterCall
	// with a fractional delay allocates nothing in steady state either.
	free []*Event
	// lanes grows to cover the longest lane delay scheduled so far: a
	// simulation allocates one short array, not laneCount lanes. busy
	// has bit i set while lane i holds an event; spare lists the
	// recycled nodes.
	lanes []lane
	busy  uint64
	spare *laneNode
	// afterEvent, when non-nil, runs after every fired event returns.
	// It observes the simulation at event granularity — between events
	// all protocol state is settled, so it is the natural hook for
	// runtime invariant checking without catching mid-event transients.
	afterEvent func()
}

// New returns a fresh simulator positioned at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far. Useful for
// convergence diagnostics and test assertions.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events queued to fire, in the heap and
// in the lanes. Cancelled events are not among them: Cancel takes an
// event out of the heap. It walks the lanes, so it is for tests and
// diagnostics, not for a loop.
func (s *Sim) Pending() int {
	n := len(s.queue)
	for m := s.busy; m != 0; m &= m - 1 {
		for e := s.lanes[bits.TrailingZeros64(m)].head; e != nil; e = e.next {
			n++
		}
	}
	return n
}

// At schedules fn to run at absolute time at. Scheduling in the past,
// at a NaN or at +Inf panics: that is always a protocol bug, never a
// recoverable condition.
func (s *Sim) At(at Time, fn func()) Handle {
	s.due(at)
	if fn == nil {
		panic("eventsim: nil event func")
	}
	ev := &Event{sim: s, fn: fn}
	s.queue.push(s.key(at, ev))
	return Handle{ev: ev}
}

// due panics unless an event may fire at at: not before now and not
// past Forever. An event at +Inf would never fire, yet RunAll would
// advance the clock to Forever to wait for it.
func (s *Sim) due(at Time) {
	if !(at >= s.now) { // so written to refuse a NaN too: it has no place in the order
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", at, s.now))
	}
	if at > Forever {
		panic(fmt.Sprintf("eventsim: scheduling at %v", at))
	}
}

// after returns the time delay units from now; a negative delay, a NaN
// or one that reaches +Inf panics.
func (s *Sim) after(delay Time) Time {
	if !(delay >= 0) {
		panic(fmt.Sprintf("eventsim: negative delay %v", delay))
	}
	at := s.now + delay
	s.due(at)
	return at
}

// draw returns the key of an event firing at at, drawing the next
// sequence number. This is the only place one is drawn: once per At,
// After, AfterCall and Reset.
func (s *Sim) draw(at Time) key {
	k := key{at: timeBits(at), seq: s.seq}
	s.seq++
	return k
}

// key returns the heap slot of ev firing at at.
func (s *Sim) key(at Time, ev *Event) slot { return slot{s.draw(at), ev} }

// After schedules fn to run delay time units from now.
func (s *Sim) After(delay Time, fn func()) Handle {
	return s.At(s.after(delay), fn)
}

// AfterCall schedules c.Fire to run delay time units from now. Unlike
// After it returns no Handle (the event cannot be cancelled), and the
// record of the event is recycled after firing, so repeated AfterCall
// scheduling — the packet-per-hop pattern — is allocation-free in
// steady state. A whole-number delay below laneCount, such as a link
// cost, appends the event to that delay's lane at O(1); any other
// delay pushes it on the heap.
func (s *Sim) AfterCall(delay Time, c Caller) {
	at := s.after(delay)
	if c == nil {
		panic("eventsim: nil Caller")
	}
	// Range-checked before the conversion: at or past laneCount, +Inf
	// included, the delay is no lane's. A negative zero is lane 0.
	if d := float64(delay); d < laneCount {
		if i := int(d); float64(i) == d {
			s.enlane(i, s.draw(at), c)
			return
		}
	}
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &Event{sim: s}
	}
	ev.call = c
	s.queue.push(s.key(at, ev))
}

// enlane appends c, firing at k, to lane i.
func (s *Sim) enlane(i int, k key, c Caller) {
	n := s.spare
	if n != nil {
		s.spare, n.next = n.next, nil
	} else {
		n = new(laneNode)
	}
	n.key, n.call = k, c
	if i >= len(s.lanes) {
		// Sixteen lanes hold every link cost in one allocation.
		size := 16
		for size <= i {
			size *= 2
		}
		s.lanes = append(s.lanes, make([]lane, size-len(s.lanes))...)
	}
	l := &s.lanes[i]
	if s.busy&(1<<i) == 0 {
		l.key, l.head = k, n
		s.busy |= 1 << i
	} else {
		l.tail.next = n
	}
	l.tail = n
}

// leastLane returns the busy lane whose head fires first; busy must
// not be empty. Like the heap's least child, the pick is by mask.
func (s *Sim) leastLane() int {
	lanes, m := s.lanes, s.busy
	best := bits.TrailingZeros64(m)
	for m &= m - 1; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		best += (i - best) & -int(lanes[i].borrow(&lanes[best].key))
	}
	return best
}

// fireLane takes the head of lane i out, recycles its node and fires it.
func (s *Sim) fireLane(i int) {
	l := &s.lanes[i]
	n := l.head
	if l.head = n.next; l.head != nil {
		l.key = l.head.key
	} else {
		s.busy &^= 1 << i
	}
	c := n.call
	n.call, n.next = nil, s.spare
	s.spare = n
	c.Fire()
}

// fireHeap takes the heap's root out and fires it, recycling it if it
// is an AfterCall.
func (s *Sim) fireHeap() {
	ev := s.queue[0].ev
	s.queue.remove(0)
	if ev.fn != nil {
		ev.fn()
		return
	}
	c := ev.call
	ev.call = nil
	s.free = append(s.free, ev)
	c.Fire()
}

// Stop halts Run after the currently executing event returns.
func (s *Sim) Stop() { s.stopped = true }

// SetAfterEvent installs (or, with nil, removes) a callback invoked
// after each fired event returns. The callback must not schedule past
// events; scheduling future ones is fine. Exactly one callback is
// supported — composition is the caller's business.
func (s *Sim) SetAfterEvent(fn func()) { s.afterEvent = fn }

// Run executes events in timestamp order until the queue drains, the
// next event would fire after horizon, or Stop is called. The clock is
// left at the time of the last fired event (or at horizon if the queue
// drained earlier than the horizon and horizon is finite).
//
// It returns ErrStopped if halted by Stop, nil otherwise.
func (s *Sim) Run(horizon Time) error {
	s.stopped = false
	for !s.stopped {
		var next *key
		i := -1 // the lane next fires from, -1 for the heap
		if s.busy != 0 {
			i = s.leastLane()
			next = &s.lanes[i].key
		}
		if len(s.queue) > 0 && (next == nil || s.queue[0].before(next)) {
			next, i = &s.queue[0].key, -1
		}
		if next == nil {
			break
		}
		at := next.time()
		if at > horizon {
			s.now = horizon
			return nil
		}
		s.now = at
		s.fired++
		if i >= 0 {
			s.fireLane(i)
		} else {
			s.fireHeap()
		}
		if s.afterEvent != nil {
			s.afterEvent()
		}
	}
	if s.stopped {
		return ErrStopped
	}
	if horizon != Forever && horizon > s.now {
		s.now = horizon
	}
	return nil
}

// RunAll executes events until the queue drains, with no horizon.
func (s *Sim) RunAll() error { return s.Run(Forever) }
