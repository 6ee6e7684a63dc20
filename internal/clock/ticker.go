package clock

// Ticker invokes a callback periodically until stopped. Protocol
// entities use tickers for soft-state refresh: receivers re-emit join
// messages every JoinInterval and the source re-multicasts tree
// messages every TreeInterval.
type Ticker struct {
	period  Time
	fn      func()
	handle  Handle
	stopped bool
}

// NewTicker schedules fn every period time units on clk, with the
// first firing a full period from now. Period must be positive. Like
// every use of a Clock it belongs to the clock's owning goroutine (or
// to the time before that goroutine starts): the callback re-arms
// through the handle After returns, so it must not be able to run
// before NewTicker has stored it.
func NewTicker(clk Clock, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &Ticker{period: period, fn: fn}
	t.handle = clk.After(period, t.tick)
	return t
}

// tick is the one callback the ticker's handle carries: every period
// re-arms the same handle.
func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.handle.Reset(t.period)
	}
}

// Stop halts the ticker. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.handle.Cancel()
}

// SoftTimer models the two-phase soft-state timer pair (t1, t2) that
// HBH and REUNITE attach to every table entry: when t1 expires the
// entry becomes stale, and when t2 expires the entry is destroyed.
// Refreshing re-arms both phases. Only one phase is ever pending, so
// the pair is one handle re-armed in place: a refresh allocates
// nothing.
type SoftTimer struct {
	t1, t2   Time
	handle   Handle
	onStale  func()
	onExpire func()
	stale    bool
	dead     bool
}

// NewSoftTimer creates and arms a (t1, t2) timer pair on clk. onStale
// fires when the entry has not been refreshed for t1 units, onExpire
// when it has not been refreshed for t1+t2 units. Either callback may
// be nil. t2 is counted from the moment the entry goes stale,
// matching the paper ("a second timer, t2, is created and will
// eventually destroy the entry"). The same rule as NewTicker: call it
// on the clock's owning goroutine, where no callback can run before the
// handle is stored.
func NewSoftTimer(clk Clock, t1, t2 Time, onStale, onExpire func()) *SoftTimer {
	if t1 <= 0 || t2 <= 0 {
		panic("clock: non-positive soft timer phase")
	}
	t := &SoftTimer{t1: t1, t2: t2, onStale: onStale, onExpire: onExpire}
	t.handle = clk.After(t1, t.fire)
	return t
}

// fire is the one callback the timer's handle carries: the t1 expiry
// of a fresh timer, the t2 expiry of a stale one.
func (t *SoftTimer) fire() {
	switch {
	case t.dead:
	case t.stale:
		t.dead = true
		if t.onExpire != nil {
			t.onExpire()
		}
	default:
		t.goStale()
	}
}

// goStale enters the stale phase and arms the destroy phase, unless
// onStale cancelled the timer.
func (t *SoftTimer) goStale() {
	t.stale = true
	if t.onStale != nil {
		t.onStale()
	}
	if !t.dead {
		t.handle.Reset(t.t2)
	}
}

// Refresh restarts the timer pair and clears staleness. Refreshing a
// dead timer is a no-op and reports false.
func (t *SoftTimer) Refresh() bool {
	if t.dead {
		return false
	}
	t.stale = false
	t.handle.Reset(t.t1)
	return true
}

// ForceStale immediately moves the timer into the stale phase, as the
// fusion rules require for a freshly installed branching-node entry
// ("Bp's t1 timer is expired — Bp becomes stale"). The destroy phase is
// armed as usual. No-op on dead timers.
func (t *SoftTimer) ForceStale() {
	if t.dead || t.stale {
		return
	}
	t.goStale()
}

// RefreshDestroyOnly re-arms only the destroy phase, leaving the entry
// stale. This implements the fusion rule "Bp's t2 timer is refreshed
// but its t1 timer is kept expired". No-op unless the timer is stale
// and alive.
func (t *SoftTimer) RefreshDestroyOnly() bool {
	if t.dead || !t.stale {
		return false
	}
	t.handle.Reset(t.t2)
	return true
}

// Stale reports whether the t1 phase has expired without a refresh.
func (t *SoftTimer) Stale() bool { return t.stale }

// Cancel kills the timer without firing onExpire.
func (t *SoftTimer) Cancel() {
	t.dead = true
	t.handle.Cancel()
}
