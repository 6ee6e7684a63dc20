// Package clock abstracts time for the protocol engines. The engines
// (core, reunite, igmp, pim) schedule soft-state timers against a
// Clock interface rather than against the discrete-event simulator
// directly, so the same unmodified state machines run both inside the
// virtual-time eventsim loop (deterministic, used by every experiment
// and by the live runtime's equivalence tests) and against the wall
// clock (the hbhd daemon and the goroutine-per-router live runtime).
//
// Time stays in the paper's virtual "time units" (one unit = one unit
// of link cost) in both implementations; the real clock maps a unit to
// a configurable wall duration. This keeps every protocol constant
// (JoinInterval, T1, T2, ...) meaningful unchanged in live mode.
package clock

import "hbh/internal/eventsim"

// Time is a timestamp or duration in virtual time units. It aliases
// eventsim.Time so engine code and experiment plumbing interoperate
// without conversion.
type Time = eventsim.Time

// Handle identifies a scheduled callback so it can be cancelled or
// re-armed. eventsim.Handle satisfies it directly.
type Handle interface {
	// Cancel prevents the callback from firing. Cancelling an
	// already-fired or already-cancelled callback is a no-op. It
	// reports whether the callback was still pending.
	Cancel() bool
	// Pending reports whether the callback is still queued to fire.
	Pending() bool
	// Reset re-arms the callback to fire delay units from now, whatever
	// its state: an arming still pending is replaced, not added to. It
	// is Cancel followed by After with the same callback, without the
	// allocations, which is how periodic and refreshed timers re-arm.
	Reset(delay Time)
}

// Clock schedules one-shot callbacks. Implementations need not be
// goroutine-safe by themselves: the simulated clock runs in the
// single-threaded event loop, and the real clock runs callbacks only
// where its driver does (the exec dispatcher it was built with, or the
// live node goroutine that drains it). All engine interaction with a
// Clock must happen on its owning goroutine.
type Clock interface {
	// Now returns the current time in virtual units.
	Now() Time
	// After schedules fn to run delay units from now and returns a
	// handle to cancel it. A non-positive delay fires as soon as
	// possible, never synchronously inside After.
	After(delay Time, fn func()) Handle
}

// simClock adapts an eventsim.Sim to the Clock interface.
type simClock struct{ s *eventsim.Sim }

// Sim wraps a discrete-event simulator as a Clock. Callbacks run in
// the simulator's event loop at the scheduled virtual time.
func Sim(s *eventsim.Sim) Clock { return simClock{s} }

func (c simClock) Now() Time { return c.s.Now() }

func (c simClock) After(delay Time, fn func()) Handle {
	return c.s.After(delay, fn)
}
