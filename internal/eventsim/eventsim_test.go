package eventsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRunOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	// Events at the same timestamp fire in scheduling order.
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; same-time events must be FIFO", i, v)
		}
	}
}

func TestHorizonStopsAndAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(50, func() { fired++ })
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 20 {
		t.Errorf("Now = %v, want horizon 20", s.Now())
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	s := New()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 10 {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("n = %d, want 10", n)
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(10, func() { fired = true })
	if !h.Pending() {
		t.Error("handle not pending after schedule")
	}
	if !h.Cancel() {
		t.Error("first cancel reported false")
	}
	if h.Cancel() {
		t.Error("second cancel reported true")
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Zero handle is inert.
	var zero Handle
	if zero.Cancel() || zero.Pending() {
		t.Error("zero handle not inert")
	}
}

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	if err := s.RunAll(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	// A subsequent Run resumes.
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestDeterministicUnderLoad(t *testing.T) {
	// Two identical random schedules must fire in the same order.
	runOnce := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var order []int
		for i := 0; i < 500; i++ {
			i := i
			s.At(Time(rng.Intn(50)), func() { order = append(order, i) })
		}
		if err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a := runOnce(7)
	b := runOnce(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// And the order respects timestamps.
	rng := rand.New(rand.NewSource(7))
	times := make([]Time, 500)
	for i := range times {
		times[i] = Time(rng.Intn(50))
	}
	fired := make([]Time, len(a))
	for i, idx := range a {
		fired[i] = times[idx]
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Error("events fired out of timestamp order")
	}
}

// callFunc adapts a func to Caller.
type callFunc func()

func (f callFunc) Fire() { f() }

// TestSchedulingAtInfinityPanics: an event at +Inf would never fire, yet
// RunAll would wait for it by setting the clock to Forever, where every
// later event would then fire. Each way of scheduling refuses it, and
// the refusal leaves the simulator as it was.
func TestSchedulingAtInfinityPanics(t *testing.T) {
	inf := Time(math.Inf(1))
	s := New()
	h := s.After(1, func() {})
	late := New()
	late.At(Forever, func() {})
	if err := late.RunAll(); err != nil {
		t.Fatal(err)
	}
	for name, schedule := range map[string]func(){
		"At":        func() { s.At(inf, func() {}) },
		"After":     func() { s.After(inf, func() {}) },
		"AfterCall": func() { s.AfterCall(inf, callFunc(func() {})) },
		"Reset":     func() { h.Reset(inf) },
		// Forever + Forever overflows to +Inf.
		"After past Forever": func() { late.After(Forever, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(+Inf) did not panic", name)
				}
			}()
			schedule()
		}()
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 1 || s.Pending() != 0 || late.Pending() != 0 {
		t.Errorf("after the refusals: Now() = %v, Pending() = %d and %d; want 1, 0, 0", s.Now(), s.Pending(), late.Pending())
	}
}

// hop is a packet in flight: each fire carries it one more hop of the
// same delay, until it has none left.
type hop struct {
	s    *Sim
	d    Time
	left int
}

func (h *hop) Fire() {
	if h.left--; h.left > 0 {
		h.s.AfterCall(h.d, h)
	}
}

// TestAfterCallZeroAlloc: once the simulator has grown to the number of
// packets in flight, forwarding them allocates nothing per hop — in a
// lane (whole-number delays below laneCount, such as link costs) and on
// the heap (any other delay).
func TestAfterCallZeroAlloc(t *testing.T) {
	for _, d := range []Time{0, 1, 10, laneCount - 1, 0.5, 2.5, laneCount} {
		s := New()
		hops := make([]hop, 8)
		var err error
		flight := func() {
			for i := range hops {
				hops[i] = hop{s: s, d: d, left: 16}
				s.AfterCall(d, &hops[i])
			}
			err = s.RunAll()
		}
		flight() // grows the lanes, the spare nodes and the heap
		if allocs := testing.AllocsPerRun(100, flight); allocs != 0 {
			t.Errorf("delay %v: %.1f allocs per flight of %d hops, want 0", d, allocs, 8*16)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
