package eventsim

import (
	"math"
	"math/rand"
	"testing"

	"hbh/internal/testseed"
)

// refEvent is one pending event of the reference.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// model drives a Sim and a reference side by side. The reference is the
// specification: a flat list of pending events, the next to fire being
// the least by (at, seq), with a sequence number drawn at every After,
// AfterCall and Reset and at no other time.
type model struct {
	t   *testing.T
	rng *rand.Rand
	sim *Sim

	now     Time
	seq     uint64
	pending []refEvent

	handles []Handle // by event id; the zero Handle for AfterCall events
	fired   int
	hooked  int // runs of the SetAfterEvent callback
}

// delay draws from a small set on purpose: ties in time are what the
// sequence number exists for. Every operation draws from it, so an
// AfterCall in a lane and an After or Reset on the heap meet at equal
// times, where only the sequence number decides.
func (m *model) delay() Time {
	switch m.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return Time(m.rng.Intn(4))
	case 2:
		return Time(m.rng.Intn(40)) / 4
	case 3: // whole numbers on both sides of the lane cut-off
		return Time(laneCount - 2 + m.rng.Intn(4))
	case 4:
		return Time(math.Copysign(0, -1))
	default:
		return Time(m.rng.Float64() * 30)
	}
}

func (m *model) find(id int) int {
	for i, e := range m.pending {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (m *model) drop(i int) {
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
}

func (m *model) add(id int, delay Time) {
	m.pending = append(m.pending, refEvent{at: m.now + delay, seq: m.seq, id: id})
	m.seq++
}

// least returns the index of the next event to fire, -1 when none.
func (m *model) least() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.at < m.pending[best].at ||
			e.at == m.pending[best].at && e.seq < m.pending[best].seq {
			best = i
		}
	}
	return best
}

// fire is every event's callback: the event must be the reference's
// next, at the reference's time, and it may schedule, cancel and re-arm
// in its turn (itself included, as a ticker does).
func (m *model) fire(id int) {
	if m.hooked != m.fired {
		m.t.Fatalf("event %d fired after %d events and %d runs of the after-event callback", id, m.fired, m.hooked)
	}
	if m.fired++; m.fired > 1e6 {
		m.t.Fatal("a million events and no end: the operation mix must stay subcritical")
	}
	i := m.least()
	if i < 0 {
		m.t.Fatalf("event %d fired with nothing pending in the reference", id)
	}
	want := m.pending[i]
	m.drop(i)
	m.now = want.at
	if want.id != id || m.sim.Now() != want.at {
		m.t.Fatalf("fired event %d at %v, reference says event %d at %v (seq %d)",
			id, m.sim.Now(), want.id, want.at, want.seq)
	}
	for n := m.rng.Intn(3); n > 0; n-- {
		m.op(id)
	}
	m.check()
}

type caller struct {
	m  *model
	id int
}

func (c caller) Fire() { c.m.fire(c.id) }

// op applies one random operation to both sides. self is the id of the
// event whose callback is running, -1 outside Run.
func (m *model) op(self int) {
	switch k := m.rng.Intn(10); {
	case k < 3: // After
		id, d := len(m.handles), m.delay()
		m.add(id, d)
		m.handles = append(m.handles, m.sim.After(d, func() { m.fire(id) }))
	case k < 5: // AfterCall
		id, d := len(m.handles), m.delay()
		m.add(id, d)
		m.handles = append(m.handles, Handle{})
		m.sim.AfterCall(d, caller{m, id})
	case k < 7: // Cancel
		id := m.pick(self)
		if id < 0 {
			return
		}
		i := m.find(id)
		if i >= 0 {
			m.drop(i)
		}
		if got := m.handles[id].Cancel(); got != (i >= 0) {
			m.t.Fatalf("Cancel of event %d reported %v, reference pending=%v", id, got, i >= 0)
		}
	default: // Reset
		id := m.pick(self)
		if id < 0 {
			return
		}
		if i := m.find(id); i >= 0 {
			m.drop(i)
		}
		d := m.delay()
		m.add(id, d)
		m.handles[id].Reset(d)
	}
}

// pick returns the id of some event that has a Handle — pending, fired
// or cancelled, the firing one now and then — or -1.
func (m *model) pick(self int) int {
	if self >= 0 && m.handles[self] != (Handle{}) && m.rng.Intn(3) == 0 {
		return self
	}
	for try := 0; try < 8 && len(m.handles) > 0; try++ {
		if id := m.rng.Intn(len(m.handles)); m.handles[id] != (Handle{}) {
			return id
		}
	}
	return -1
}

func (m *model) check() {
	if got := m.sim.Pending(); got != len(m.pending) {
		m.t.Fatalf("Pending() = %d, reference holds %d", got, len(m.pending))
	}
	for _, e := range m.pending {
		if h := m.handles[e.id]; h != (Handle{}) && !h.Pending() {
			m.t.Fatalf("event %d pending in the reference, its Handle says not", e.id)
		}
	}
}

// TestQueueAgainstReference runs seeded random interleavings of After,
// AfterCall, Cancel, Reset and Run — from outside the loop and from
// inside firing events — against the reference: the fired order, the
// clock and Pending() must agree at every step, and the after-event
// callback must run exactly once per fired event, whether it came from
// the heap or a lane. It is what licenses replacing the queue's layout,
// re-arming timers in place and keeping packets in lanes: the order
// (at, seq) defines is all a simulation can observe of any of them.
func TestQueueAgainstReference(t *testing.T) {
	seed := testseed.Seed(t)
	for round := int64(0); round < 20; round++ {
		m := &model{t: t, rng: rand.New(rand.NewSource(seed + round)), sim: New()}
		m.sim.SetAfterEvent(func() { m.hooked++ })
		for step := 0; step < 400; step++ {
			if m.rng.Intn(4) > 0 {
				m.op(-1)
				m.check()
				continue
			}
			horizon := m.now + m.delay()
			if err := m.sim.Run(horizon); err != nil {
				t.Fatal(err)
			}
			if i := m.least(); i >= 0 && m.pending[i].at <= horizon {
				t.Fatalf("Run(%v) returned with event %d due at %v", horizon, m.pending[i].id, m.pending[i].at)
			}
			m.now = horizon
			if m.sim.Now() != m.now {
				t.Fatalf("after Run(%v) the clock reads %v", horizon, m.sim.Now())
			}
			m.check()
		}
		if err := m.sim.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(m.pending) != 0 || m.sim.Pending() != 0 {
			t.Fatalf("drained: reference holds %d, Pending() = %d", len(m.pending), m.sim.Pending())
		}
		if m.fired == 0 {
			t.Fatal("round fired nothing")
		}
		if m.hooked != m.fired {
			t.Fatalf("%d events fired, the after-event callback ran %d times", m.fired, m.hooked)
		}
	}
}

// TestNegativeZeroIsZero: the queue orders timestamps by their bit
// patterns, where a negative zero would read as the largest of all.
func TestNegativeZeroIsZero(t *testing.T) {
	s := New()
	var order []int
	s.At(1, func() { order = append(order, 2) })
	s.At(Time(math.Copysign(0, -1)), func() { order = append(order, 1) })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 {
		t.Errorf("fired %v: the event at -0 must fire first", order)
	}
}
