package clock

import (
	"container/heap"
	"math"
	"sync"
	"time"
)

// Real is a wall-clock Clock. A virtual time unit maps to a fixed
// wall duration (Unit), and Now counts units elapsed since the
// clock's start epoch, so protocol timer constants keep their paper
// semantics at any real-time scale.
//
// Every handle of a clock waits in one queue ordered by due instant
// (then by the order of arming), so a clock costs at most one runtime
// timer however many callbacks are armed on it. Callbacks run only
// inside RunDue, called by whoever drives the clock. A clock built by
// NewReal or NewRealAt drives itself: one runtime timer, armed for the
// earliest due instant, hands RunDue to the exec dispatcher. A clock
// built by NewRealDriven holds no runtime timer: the live runtime's node
// goroutine sleeps until NextDue and calls RunDue itself. Either way
// callbacks are serialised with whatever else the driver runs, so engine
// code stays single-threaded per router exactly as under eventsim.
// Arming, unlike the callbacks, is safe from any goroutine: transports
// queue a frame's arrival on the destination node from their own.
//
// The fired/cancelled decision is taken when RunDue takes the handle
// out of the queue, not when a runtime timer pops: a Cancel or Reset
// the owner executes before RunDue reaches the handle wins, however
// long ago its due instant passed. This is what makes Refresh (a Reset)
// race-free against a concurrent expiry.
type Real struct {
	start time.Time
	unit  time.Duration
	// arm tells the driver that the earliest due instant moved before
	// the one it last promised to wake for, to wait from now. Called
	// with mu held.
	arm func(wait time.Duration)

	mu  sync.Mutex
	q   realQueue
	seq uint64
	// promised is the due instant the driver will call RunDue by, as an
	// offset from start: what NextDue last reported, awake while RunDue
	// is at work (NextDue follows), never when nothing was queued.
	promised time.Duration
	timer    *time.Timer // a self-driven clock's one runtime timer
}

const (
	awake = time.Duration(math.MinInt64)
	never = time.Duration(math.MaxInt64)
)

// NewReal builds a wall clock whose epoch (virtual t=0) is now. unit
// is the wall duration of one virtual time unit and must be positive.
// exec dispatches timer callbacks; nil runs them inline on the timer
// goroutine (only safe for single-goroutine use, e.g. tests).
func NewReal(unit time.Duration, exec func(fn func())) *Real {
	return NewRealAt(time.Now(), unit, exec)
}

// NewRealAt is NewReal with an explicit epoch, so several clocks can
// share one time base.
func NewRealAt(start time.Time, unit time.Duration, exec func(fn func())) *Real {
	r := newReal(start, unit)
	run := func() {
		for r.RunDue(64) == 64 {
		}
		r.mu.Lock()
		if due, ok := r.nextDueLocked(); ok {
			r.timer.Reset(time.Until(due))
		}
		r.mu.Unlock()
	}
	kick := run
	if exec != nil {
		kick = func() { exec(run) }
	}
	r.timer = time.AfterFunc(time.Hour, kick)
	r.timer.Stop()
	r.arm = func(wait time.Duration) { r.timer.Reset(wait) }
	return r
}

// NewRealDriven builds a wall clock that holds no runtime timer: its
// owner sleeps until NextDue and then calls RunDue. wake is called, from
// whichever goroutine armed the handle, when the earliest due instant
// moves before the one NextDue last reported.
func NewRealDriven(start time.Time, unit time.Duration, wake func()) *Real {
	r := newReal(start, unit)
	r.arm = func(time.Duration) { wake() }
	return r
}

func newReal(start time.Time, unit time.Duration) *Real {
	if unit <= 0 {
		panic("clock: non-positive real time unit")
	}
	return &Real{start: start, unit: unit, promised: never}
}

// Now returns the virtual units elapsed since the epoch.
func (r *Real) Now() Time {
	return Time(float64(time.Since(r.start)) / float64(r.unit))
}

// After schedules fn to run delay units from now.
func (r *Real) After(delay Time, fn func()) Handle {
	h := r.NewHandle(fn)
	h.Reset(delay)
	return h
}

// NewHandle returns a handle for fn that Reset arms: what is scheduled
// over and over (an arrival envelope) allocates nothing per arming.
func (r *Real) NewHandle(fn func()) Handle {
	return &realHandle{clk: r, fn: fn, idx: -1}
}

// RunDue runs the callbacks whose due instant has passed, earliest
// first, at most max of them (a driver has other work it must not
// starve), and reports how many it ran.
func (r *Real) RunDue(max int) int {
	now := time.Since(r.start)
	n := 0
	for ; n < max; n++ {
		r.mu.Lock()
		r.promised = awake
		if len(r.q) == 0 || r.q[0].due > now {
			r.mu.Unlock()
			break
		}
		h := heap.Pop(&r.q).(*realHandle)
		r.mu.Unlock()
		h.fn()
	}
	return n
}

// NextDue reports the instant the earliest armed callback is due (it
// may have passed), and false when none is armed. The driver thereby
// promises to call RunDue by then; the clock wakes it if something is
// armed for earlier meanwhile.
func (r *Real) NextDue() (due time.Time, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextDueLocked()
}

func (r *Real) nextDueLocked() (due time.Time, ok bool) {
	if len(r.q) == 0 {
		r.promised = never
		return time.Time{}, false
	}
	r.promised = r.q[0].due
	return r.start.Add(r.promised), true
}

// realHandle is one callback and its place in the clock's queue.
type realHandle struct {
	clk *Real
	fn  func()
	// Guarded by clk.mu. idx is the handle's position in clk.q, -1 when
	// it is not armed; seq orders handles due at the same instant by
	// arming.
	due time.Duration
	seq uint64
	idx int
}

// Reset re-arms the callback delay units from now.
func (h *realHandle) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	r := h.clk
	now := time.Since(r.start)
	h.armAt(now+time.Duration(float64(delay)*float64(r.unit)), now)
}

// armAt queues the handle for due, an offset from the clock's start as
// now is, behind whatever is already queued for that instant.
func (h *realHandle) armAt(due, now time.Duration) {
	r := h.clk
	r.mu.Lock()
	defer r.mu.Unlock()
	h.due = due
	h.seq = r.seq
	r.seq++
	if h.idx < 0 {
		heap.Push(&r.q, h)
	} else {
		heap.Fix(&r.q, h.idx)
	}
	if h.idx == 0 && due < r.promised {
		r.promised = due
		r.arm(due - now)
	}
}

// Cancel prevents the callback from firing. Reports whether it was
// still pending (from the caller's serialised point of view: a callback
// whose due instant has passed but which RunDue has not reached counts
// as pending and is suppressed).
func (h *realHandle) Cancel() bool {
	r := h.clk
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.idx < 0 {
		return false
	}
	heap.Remove(&r.q, h.idx)
	if len(r.q) == 0 && r.timer != nil {
		// A self-driven clock with nothing armed dispatches nothing: its
		// owner may be gone by the time a timer left running popped.
		r.timer.Stop()
		r.promised = never
	}
	return true
}

// Pending reports whether the callback may still fire.
func (h *realHandle) Pending() bool {
	h.clk.mu.Lock()
	defer h.clk.mu.Unlock()
	return h.idx >= 0
}

// realQueue is the heap.Interface over a clock's armed handles.
type realQueue []*realHandle

func (q realQueue) Len() int { return len(q) }
func (q realQueue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}
func (q realQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *realQueue) Push(x any) {
	h := x.(*realHandle)
	h.idx = len(*q)
	*q = append(*q, h)
}
func (q *realQueue) Pop() any {
	old := *q
	h := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	h.idx = -1
	return h
}
