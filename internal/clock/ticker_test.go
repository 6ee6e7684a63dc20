package clock

import (
	"testing"

	"hbh/internal/eventsim"
)

// simTestClock builds a simulated clock plus its driving simulator.
func simTestClock() (*eventsim.Sim, Clock) {
	s := eventsim.New()
	return s, Sim(s)
}

func TestTicker(t *testing.T) {
	s, clk := simTestClock()
	n := 0
	tk := NewTicker(clk, 10, func() { n++ })
	if err := s.Run(55); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("ticks = %d, want 5", n)
	}
	tk.Stop()
	tk.Stop() // idempotent
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("ticks after stop = %d, want 5", n)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s, clk := simTestClock()
	n := 0
	var tk *Ticker
	tk = NewTicker(clk, 10, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestSoftTimerPhases(t *testing.T) {
	s, clk := simTestClock()
	var staleAt, deadAt Time
	tm := NewSoftTimer(clk, 10, 5,
		func() { staleAt = s.Now() },
		func() { deadAt = s.Now() })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if staleAt != 10 {
		t.Errorf("stale at %v, want 10", staleAt)
	}
	if deadAt != 15 {
		t.Errorf("dead at %v, want 15", deadAt)
	}
	if !tm.Stale() {
		t.Error("final state not stale")
	}
	if tm.Refresh() {
		t.Error("expired timer accepted a refresh")
	}
}

func TestSoftTimerRefresh(t *testing.T) {
	s, clk := simTestClock()
	dead := false
	tm := NewSoftTimer(clk, 10, 5, nil, func() { dead = true })
	// Refresh every 8 units: never goes stale.
	for i := 1; i <= 5; i++ {
		s.At(Time(8*i), func() {
			if tm.Stale() {
				t.Error("timer went stale despite refreshes")
			}
			tm.Refresh()
		})
	}
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	if dead {
		t.Fatal("timer died despite refreshes")
	}
	// Now stop refreshing: dies at 40+15.
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !dead {
		t.Error("timer did not die after refreshes stopped")
	}
	if s.Now() != 55 {
		t.Errorf("death at %v, want 55", s.Now())
	}
	if tm.Refresh() {
		t.Error("Refresh on dead timer reported success")
	}
}

func TestSoftTimerForceStale(t *testing.T) {
	s, clk := simTestClock()
	dead := false
	tm := NewSoftTimer(clk, 100, 5, nil, func() { dead = true })
	s.At(1, tm.ForceStale)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !dead || s.Now() != 6 {
		t.Errorf("forced-stale timer died at %v (dead=%v), want 6", s.Now(), dead)
	}
}

func TestSoftTimerRefreshDestroyOnly(t *testing.T) {
	s, clk := simTestClock()
	dead := false
	tm := NewSoftTimer(clk, 10, 20, nil, func() { dead = true })
	// Stale at 10, would die at 30; refresh destroy phase at 25.
	s.At(25, func() {
		if !tm.Stale() {
			t.Error("not stale at 25")
		}
		if !tm.RefreshDestroyOnly() {
			t.Error("RefreshDestroyOnly failed on stale timer")
		}
	})
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	if dead {
		t.Fatal("died before extended deadline")
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !dead || s.Now() != 45 {
		t.Errorf("died at %v (dead=%v), want 45", s.Now(), dead)
	}
	// RefreshDestroyOnly on a fresh timer is a no-op.
	tm2 := NewSoftTimer(clk, 10, 5, nil, nil)
	if tm2.RefreshDestroyOnly() {
		t.Error("RefreshDestroyOnly succeeded on fresh timer")
	}
	tm2.Cancel()
}

func TestSoftTimerCancel(t *testing.T) {
	s, clk := simTestClock()
	tm := NewSoftTimer(clk, 10, 5, func() {
		t.Error("stale fired after cancel")
	}, func() {
		t.Error("expire fired after cancel")
	})
	s.At(5, tm.Cancel)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if tm.Refresh() {
		t.Error("cancelled timer accepted a refresh")
	}
}

// TestSoftTimerCancelFromStale pins the teardown path where the
// onStale callback itself cancels the timer: the destroy phase must
// never arm and onExpire must never fire.
func TestSoftTimerCancelFromStale(t *testing.T) {
	s, clk := simTestClock()
	var tm *SoftTimer
	tm = NewSoftTimer(clk, 10, 5,
		func() { tm.Cancel() },
		func() { t.Error("expire fired after cancel from onStale") })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if tm.Refresh() {
		t.Error("timer cancelled from onStale accepted a refresh")
	}
	if s.Now() != 10 {
		t.Errorf("final event at %v, want 10 (no destroy phase)", s.Now())
	}
}

// TestTickerTeardownReleasesEvent pins that Stop cancels the pending
// event immediately: the simulator drains with no further firings and
// time does not advance past the stop point.
func TestTickerTeardownReleasesEvent(t *testing.T) {
	s, clk := simTestClock()
	n := 0
	tk := NewTicker(clk, 10, func() { n++ })
	s.At(25, tk.Stop)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ticks = %d, want 2", n)
	}
	if s.Now() != 25 {
		t.Errorf("sim drained at %v, want 25 (pending tick cancelled)", s.Now())
	}
}

// TestSoftTimerRefreshZeroAlloc: under the simulated clock a refresh
// re-arms the timer's one event in place. It used to cancel and
// schedule anew, an event and a closure per refresh, and leave the
// cancelled event queued until its time came.
func TestSoftTimerRefreshZeroAlloc(t *testing.T) {
	sim, clk := simTestClock()
	st := NewSoftTimer(clk, 350, 350, nil, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		st.Refresh()
		st.ForceStale()
		st.RefreshDestroyOnly()
		st.Refresh()
	})
	if allocs != 0 {
		t.Errorf("SoftTimer re-arming allocates %.1f allocs/op, want 0", allocs)
	}
	if got := sim.Pending(); got != 1 {
		t.Errorf("%d events pending for one timer, want 1", got)
	}
}

// TestTickerZeroAlloc: a tick re-arms the ticker's one event in place.
func TestTickerZeroAlloc(t *testing.T) {
	sim, clk := simTestClock()
	ticks := 0
	tk := NewTicker(clk, 10, func() { ticks++ })
	if err := sim.Run(100); err != nil { // warm the simulator
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sim.Run(sim.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a ticking Ticker allocates %.1f allocs per ten ticks, want 0", allocs)
	}
	if ticks != 10*102 {
		t.Errorf("ticked %d times, want %d", ticks, 10*102)
	}
	tk.Stop()
	if got := sim.Pending(); got != 0 {
		t.Errorf("%d events pending after Stop, want 0", got)
	}
}
