package clock

import (
	"sync"
	"time"
)

// Real is a wall-clock Clock. A virtual time unit maps to a fixed
// wall duration (Unit), and Now counts units elapsed since the
// clock's start epoch, so protocol timer constants keep their paper
// semantics at any real-time scale.
//
// Callbacks are not run on the runtime timer goroutine: they are
// handed to the exec dispatcher the clock was built with, which in
// the live runtime enqueues them onto the owning router's mailbox.
// That serialises timer callbacks with message handling, so engine
// code stays single-threaded per router exactly as under eventsim.
//
// The fired/cancelled decision is taken inside the dispatched
// closure, not when the OS timer pops: a Cancel or Reset that the owner
// goroutine executes before the dispatched callback drains wins, even
// if the underlying time.Timer has already fired. This is what makes
// Refresh (a Reset) race-free against a concurrent expiry.
type Real struct {
	start time.Time
	unit  time.Duration
	exec  func(fn func())
}

// NewReal builds a wall clock whose epoch (virtual t=0) is now. unit
// is the wall duration of one virtual time unit and must be positive.
// exec dispatches timer callbacks; nil runs them inline on the timer
// goroutine (only safe for single-goroutine use, e.g. tests).
func NewReal(unit time.Duration, exec func(fn func())) *Real {
	return NewRealAt(time.Now(), unit, exec)
}

// NewRealAt is NewReal with an explicit epoch, so several per-node
// clocks (one exec dispatcher each) can share one time base.
func NewRealAt(start time.Time, unit time.Duration, exec func(fn func())) *Real {
	if unit <= 0 {
		panic("clock: non-positive real time unit")
	}
	if exec == nil {
		exec = func(fn func()) { fn() }
	}
	return &Real{start: start, unit: unit, exec: exec}
}

// Unit returns the wall duration of one virtual time unit.
func (r *Real) Unit() time.Duration { return r.unit }

// Start returns the wall time of virtual t=0.
func (r *Real) Start() time.Time { return r.start }

// Now returns the virtual units elapsed since the epoch.
func (r *Real) Now() Time {
	return Time(float64(time.Since(r.start)) / float64(r.unit))
}

// After schedules fn to run delay units from now via the dispatcher.
func (r *Real) After(delay Time, fn func()) Handle {
	h := &realHandle{clk: r, fn: fn}
	h.Reset(delay)
	return h
}

// realHandle tracks one wall-clock callback through its armings.
type realHandle struct {
	clk *Real
	fn  func()

	mu    sync.Mutex
	timer *time.Timer
	// gen is the arming the current timer dispatches for. A dispatch
	// carrying an older gen belongs to an arming Reset has replaced.
	gen   uint64
	armed bool
}

// Reset re-arms the callback delay units from now. A runtime timer
// stopped before it fired is reused as it is. Otherwise a dispatch of
// the old arming may be in flight between the timer goroutine and the
// owner's mailbox: the new arming gets a fresh timer under the next
// gen, and the stray dispatch finds its gen stale when it drains.
func (h *realHandle) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	d := time.Duration(float64(delay) * float64(h.clk.unit))
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed = true
	if h.timer != nil && h.timer.Stop() {
		h.timer.Reset(d)
		return
	}
	h.gen++
	gen := h.gen
	h.timer = time.AfterFunc(d, func() { h.clk.exec(func() { h.fire(gen) }) })
}

// fire runs on the dispatcher: the callback runs unless its arming was
// cancelled or replaced in the meantime.
func (h *realHandle) fire(gen uint64) {
	h.mu.Lock()
	if !h.armed || h.gen != gen {
		h.mu.Unlock()
		return
	}
	h.armed = false
	h.mu.Unlock()
	h.fn()
}

// Cancel prevents the callback from firing. Reports whether it was
// still pending (from the caller's serialised point of view: a timer
// whose dispatch has not yet run counts as pending and is suppressed).
func (h *realHandle) Cancel() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.armed {
		return false
	}
	h.armed = false
	h.timer.Stop()
	return true
}

// Pending reports whether the callback may still fire.
func (h *realHandle) Pending() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.armed
}
