package clock

import (
	"sync"
	"testing"
	"time"

	"hbh/internal/eventsim"
)

// gateExec is a dispatcher that queues callbacks instead of running
// them, standing in for a router mailbox whose goroutine is busy. It
// lets tests force the timer-fired-but-not-yet-dispatched window.
type gateExec struct {
	mu sync.Mutex
	q  []func()
}

func (g *gateExec) exec(fn func()) {
	g.mu.Lock()
	g.q = append(g.q, fn)
	g.mu.Unlock()
}

func (g *gateExec) pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.q)
}

func (g *gateExec) drain() {
	for {
		g.mu.Lock()
		if len(g.q) == 0 {
			g.mu.Unlock()
			return
		}
		fn := g.q[0]
		g.q = g.q[1:]
		g.mu.Unlock()
		fn()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRealCancelBeatsDispatchedFire pins the reset-vs-fire race the
// live runtime depends on: if the OS timer pops but the owner
// goroutine cancels the handle before the dispatched callback drains,
// the callback must not run. This is what makes SoftTimer.Refresh
// (cancel + re-arm) sound when a refresh message and the expiry race.
func TestRealCancelBeatsDispatchedFire(t *testing.T) {
	g := &gateExec{}
	r := NewReal(time.Millisecond, g.exec)
	fired := false
	h := r.After(1, func() { fired = true })
	// Wait for the OS timer to pop and enqueue the dispatch.
	waitFor(t, "timer dispatch", func() bool { return g.pending() > 0 })
	// The owner goroutine cancels before draining its mailbox: from
	// its serialised point of view the timer is still pending.
	if !h.Cancel() {
		t.Error("Cancel reported not-pending before the dispatch drained")
	}
	g.drain()
	if fired {
		t.Fatal("callback ran despite cancel before dispatch")
	}
	if h.Pending() {
		t.Error("handle still pending after cancel")
	}
}

// TestRealCancelAfterFire: once the dispatched callback has run,
// Cancel is a no-op and reports false.
func TestRealCancelAfterFire(t *testing.T) {
	g := &gateExec{}
	r := NewReal(time.Millisecond, g.exec)
	fired := false
	h := r.After(1, func() { fired = true })
	if !h.Pending() {
		t.Error("handle not pending right after After")
	}
	waitFor(t, "timer dispatch", func() bool { return g.pending() > 0 })
	g.drain()
	if !fired {
		t.Fatal("callback did not run")
	}
	if h.Cancel() {
		t.Error("Cancel reported pending after fire")
	}
	if h.Pending() {
		t.Error("handle pending after fire")
	}
}

// TestRealResetBeatsDispatchedFire is the same window for Reset, which
// is how SoftTimer.Refresh re-arms: the OS timer has popped and its
// dispatch is queued when the owner re-arms. The queued dispatch
// belongs to the old arming and must not run the callback; the new
// arming must, once.
func TestRealResetBeatsDispatchedFire(t *testing.T) {
	g := &gateExec{}
	r := NewReal(time.Millisecond, g.exec)
	fired := 0
	h := r.After(1, func() { fired++ })
	waitFor(t, "timer dispatch", func() bool { return g.pending() > 0 })
	h.Reset(1000)
	g.drain() // the superseded dispatch
	if fired != 0 {
		t.Fatal("the replaced arming's dispatch ran the callback, a second early")
	}
	if !h.Pending() {
		t.Error("handle not pending after Reset")
	}
	h.Reset(1)
	waitFor(t, "the new arming's callback", func() bool { g.drain(); return fired > 0 })
	time.Sleep(5 * time.Millisecond)
	g.drain()
	if fired != 1 {
		t.Fatalf("callback ran %d times, want once", fired)
	}
	if h.Pending() {
		t.Error("handle pending after its callback ran")
	}
}

// TestRealResetRearms: Reset brings a fired and a cancelled handle back,
// and replaces a pending arming instead of adding to it.
func TestRealResetRearms(t *testing.T) {
	g := &gateExec{}
	r := NewReal(time.Millisecond, g.exec)
	fired := 0
	h := r.After(1, func() { fired++ })
	waitFor(t, "first fire", func() bool { g.drain(); return fired == 1 })
	h.Reset(1)
	waitFor(t, "fire after re-arming a fired handle", func() bool { g.drain(); return fired == 2 })
	h.Reset(1000)
	if !h.Cancel() || h.Pending() {
		t.Fatal("Cancel of a re-armed handle")
	}
	h.Reset(1)
	waitFor(t, "fire after re-arming a cancelled handle", func() bool { g.drain(); return fired == 3 })
	h.Reset(1000) // pending, far off
	h.Reset(1)    // replaced, not added to
	waitFor(t, "fire of the replacing arming", func() bool { g.drain(); return fired == 4 })
	time.Sleep(5 * time.Millisecond)
	g.drain()
	if fired != 4 || h.Pending() {
		t.Errorf("fired %d times (pending=%v), want 4 and spent", fired, h.Pending())
	}
}

// TestRealResetVsFire hammers one handle from its owner goroutine with
// Resets timed to land on the expiry, and the odd Cancel, while the
// runtime's timer goroutines dispatch into the owner's mailbox: run
// under -race this is the check that the handle's state is only touched
// under its mutex. Whatever the interleaving, an arming fires at most
// once, and never after a Cancel the owner has executed.
func TestRealResetVsFire(t *testing.T) {
	// The owner's mailbox. It is stopped, not closed: a timer goroutine
	// may still be on its way to it when the test ends.
	mbox := make(chan func(), 256) // deep enough that dispatches rarely wait on the owner
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case fn := <-mbox:
				fn()
			case <-stop:
				return
			}
		}
	}()
	r := NewReal(50*time.Microsecond, func(fn func()) {
		select {
		case mbox <- fn:
		case <-stop:
		}
	})
	do := func(fn func()) {
		ran := make(chan struct{})
		mbox <- func() { fn(); close(ran) }
		<-ran
	}

	// Owner-goroutine state.
	var h Handle
	armed, fires, doubles, ghosts := false, 0, 0, 0
	do(func() {
		h = r.After(1, func() {
			fires++
			if !armed {
				ghosts++ // fired with no arming outstanding
			}
			armed = false
		})
		armed = true
	})
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	for i := 0; i < rounds; i++ {
		switch i % 8 {
		case 7:
			do(func() {
				if h.Cancel() != armed {
					doubles++
				}
				armed = false
			})
		default:
			do(func() { h.Reset(1); armed = true })
		}
		if i%3 == 0 {
			time.Sleep(50 * time.Microsecond) // let this arming reach its expiry
		}
	}
	do(func() { h.Cancel(); armed = false })
	time.Sleep(5 * time.Millisecond)
	do(func() {}) // whatever was dispatched meanwhile has drained
	close(stop)
	<-done
	if ghosts != 0 || doubles != 0 {
		t.Errorf("%d callbacks with no arming outstanding, %d Cancels that disagreed with the owner's view", ghosts, doubles)
	}
	if fires == 0 {
		t.Error("no arming ever fired: the hammer does not reach the race it is for")
	}
}

// TestRealSoftTimerRefreshRace drives a SoftTimer on the real clock
// through the race window: t1 pops, its dispatch is queued, and the
// owner refreshes before draining. The stale callback must not fire —
// the refresh happened first in the owner's serialised order.
func TestRealSoftTimerRefreshRace(t *testing.T) {
	g := &gateExec{}
	r := NewReal(time.Millisecond, g.exec)
	staled := false
	tm := NewSoftTimer(r, 1, 1000, func() { staled = true }, nil)
	waitFor(t, "t1 dispatch", func() bool { return g.pending() > 0 })
	if !tm.Refresh() {
		t.Fatal("Refresh failed on live timer")
	}
	g.drain() // the superseded t1 dispatch must be a no-op
	if staled {
		t.Fatal("stale fired despite refresh before dispatch drained")
	}
	if tm.Stale() {
		t.Error("timer stale after refresh")
	}
	tm.Cancel()
	g.drain()
}

// TestRealTickerTeardown runs a Ticker against the wall clock with a
// serial dispatcher (a stand-in router goroutine) and checks Stop
// halts it cleanly: no late tick runs after Stop is processed.
func TestRealTickerTeardown(t *testing.T) {
	mbox := make(chan func(), 64)
	done := make(chan struct{})
	go func() {
		for fn := range mbox {
			fn()
		}
		close(done)
	}()
	r := NewReal(time.Millisecond, func(fn func()) { mbox <- fn })

	var mu sync.Mutex
	ticks := 0
	var tk *Ticker
	mbox <- func() { tk = NewTicker(r, 2, func() { mu.Lock(); ticks++; mu.Unlock() }) }
	waitFor(t, "three ticks", func() bool { mu.Lock(); defer mu.Unlock(); return ticks >= 3 })
	stopped := make(chan struct{})
	mbox <- func() { tk.Stop(); close(stopped) }
	<-stopped
	mu.Lock()
	after := ticks
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	close(mbox)
	<-done
	mu.Lock()
	final := ticks
	mu.Unlock()
	// One tick may have been in flight in the mailbox when Stop ran;
	// the ticker's own stopped check suppresses it, so the count must
	// not advance at all once Stop has been processed.
	if final != after {
		t.Errorf("ticks advanced after Stop: %d -> %d", after, final)
	}
}

// TestRealSimDrift fires the same schedule on the simulated and real
// clocks and checks they agree: same firing order, and the real clock
// never fires early (observed virtual time >= scheduled delay) while
// staying within a generous lateness bound.
func TestRealSimDrift(t *testing.T) {
	delays := []Time{1, 4, 9, 16}

	s := eventsim.New()
	sc := Sim(s)
	var simOrder []int
	for i, d := range delays {
		i := i
		sc.After(d, func() { simOrder = append(simOrder, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}

	const unit = 5 * time.Millisecond
	r := NewReal(unit, nil) // inline exec: callbacks on timer goroutines
	var mu sync.Mutex
	var realOrder []int
	observed := make([]Time, len(delays))
	var wg sync.WaitGroup
	wg.Add(len(delays))
	for i, d := range delays {
		i, d := i, d
		r.After(d, func() {
			mu.Lock()
			realOrder = append(realOrder, i)
			observed[i] = r.Now()
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()

	if len(realOrder) != len(simOrder) {
		t.Fatalf("real fired %d callbacks, sim %d", len(realOrder), len(simOrder))
	}
	for k := range simOrder {
		if realOrder[k] != simOrder[k] {
			t.Fatalf("firing order diverged: sim %v, real %v", simOrder, realOrder)
		}
	}
	// Lateness bound: 200ms of wall slack expressed in units.
	slack := Time(float64(200*time.Millisecond) / float64(unit))
	for i, d := range delays {
		if observed[i] < d {
			t.Errorf("callback %d fired early: at %v units, scheduled %v", i, observed[i], d)
		}
		if observed[i] > d+slack {
			t.Errorf("callback %d drifted: at %v units, scheduled %v (slack %v)", i, observed[i], d, slack)
		}
	}
}

// TestRealNowMonotone: Now never runs backwards and tracks the unit.
func TestRealNowMonotone(t *testing.T) {
	r := NewReal(time.Millisecond, nil)
	prev := r.Now()
	for i := 0; i < 100; i++ {
		now := r.Now()
		if now < prev {
			t.Fatalf("Now ran backwards: %v -> %v", prev, now)
		}
		prev = now
	}
	time.Sleep(10 * time.Millisecond)
	if r.Now() < 10 {
		t.Errorf("Now = %v units after 10ms at 1ms/unit", r.Now())
	}
}

// TestRealAfterResetZeroAlloc: re-arming a handle moves it in the
// clock's queue and allocates nothing, whichever way it moves and
// whether or not it was still queued — what a soft-state refresh and a
// frame's arrival envelope both rely on.
func TestRealAfterResetZeroAlloc(t *testing.T) {
	r := NewRealDriven(time.Now(), time.Millisecond, func() {})
	for i := 0; i < 8; i++ {
		r.After(Time(1000+i), func() {}) // company in the queue
	}
	h := r.After(2000, func() {})
	d := Time(0)
	if got := testing.AllocsPerRun(1000, func() {
		d++
		h.Reset(500 + 7*d) // behind some, ahead of others
		if int(d)%3 == 0 {
			h.Cancel()
		}
		h.Reset(5000 - d)
	}); got != 0 {
		t.Errorf("re-arming a Real handle allocates %v times, want 0", got)
	}
}

// TestRealSameInstantRunsInArmingOrder: handles due at one instant run
// in the order they were armed, and an earlier instant runs first
// however late it was armed — the order frames over one link, and over
// a cheaper one, reach a live node in.
func TestRealSameInstantRunsInArmingOrder(t *testing.T) {
	r := NewRealDriven(time.Now().Add(-time.Second), time.Millisecond, func() {})
	var order []int
	arm := func(i int, due time.Duration) {
		h := r.NewHandle(func() { order = append(order, i) }).(*realHandle)
		h.armAt(due, 0)
	}
	for i := 0; i < 50; i++ {
		arm(i, 700*time.Millisecond)
	}
	arm(50, 300*time.Millisecond)
	if n := r.RunDue(20); n != 20 {
		t.Fatalf("RunDue(20) ran %d callbacks of 51 due", n)
	}
	for r.RunDue(20) > 0 {
	}
	if len(order) != 51 {
		t.Fatalf("ran %d callbacks, want 51", len(order))
	}
	for i, got := range order {
		if want := (i + 50) % 51; got != want { // 50, 0, 1, ... 49
			t.Fatalf("ran in order %v, want the earlier instant first and the rest as armed", order)
		}
	}
}

// TestRealDrivenWakesOnlyForEarlier: a driven clock holds no timer of
// its own and calls wake exactly when something is armed for earlier
// than the instant NextDue last reported.
func TestRealDrivenWakesOnlyForEarlier(t *testing.T) {
	wakes := 0
	r := NewRealDriven(time.Now(), time.Millisecond, func() { wakes++ })
	fired := 0
	h := r.After(50, func() { fired++ })
	if wakes != 1 {
		t.Fatalf("first arming woke the driver %d times, want once", wakes)
	}
	if due, ok := r.NextDue(); !ok || time.Until(due) <= 0 || time.Until(due) > 50*time.Millisecond {
		t.Fatalf("NextDue = %v, %v; want an instant up to 50ms from now", due, ok)
	}
	r.After(80, func() {}) // later than promised: the driver sleeps on
	h.Reset(60)
	if wakes != 1 {
		t.Fatalf("arming behind the promised instant woke the driver (%d wakes)", wakes)
	}
	r.After(1, func() { fired += 10 })
	if wakes != 2 {
		t.Fatalf("arming ahead of the promised instant: %d wakes, want 2", wakes)
	}
	time.Sleep(3 * time.Millisecond)
	if fired != 0 {
		t.Fatal("a driven clock ran a callback by itself")
	}
	if n := r.RunDue(10); n != 1 || fired != 10 {
		t.Fatalf("RunDue ran %d callbacks (fired=%d), want the one due", n, fired)
	}
	r.After(0, func() {}) // the driver is awake: it will ask again
	if wakes != 2 {
		t.Fatalf("arming while the driver is awake woke it (%d wakes)", wakes)
	}
}
