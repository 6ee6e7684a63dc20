package live

import (
	"sync"
	"time"

	"hbh/internal/clock"
)

// host is what a hosted node has of the runtime beyond its netsim.Node:
// the buffer its frames are built in and, in RealMode, the goroutine
// that is the router's serialised execution context and the queue it
// drains. Every engine call for the node runs on that goroutine (from a
// handler, a timer callback, or Runtime.Do).
type host struct {
	// wbuf is the frame being sent: the frame wire builds every frame of
	// this node in it, on the node's goroutine.
	wbuf []byte

	// RealMode only. real is the node's clock as what it is to the
	// goroutine: the one due-ordered queue of everything the node waits
	// for — frame arrivals and the engines' timers alike — which loop
	// drains.
	real *clock.Real
	// wake holds one token: a Do was posted, the node was closed, or
	// something was queued for earlier than loop is sleeping until.
	wake chan struct{}
	done chan struct{} // closed when loop has returned

	mu     sync.Mutex
	inbox  []call // Do calls posted and not yet taken by loop
	closed bool
	// dones are completion signals no Do is waiting on, each buffered
	// for one token: a Do takes one, loop signals it once fn has run, and
	// the Do puts it back, so a stream of Do calls allocates none.
	dones []chan struct{}
}

// call is one posted Do: fn, and the signal loop gives once it has run.
type call struct {
	fn   func()
	done chan struct{}
}

// do runs fn on the node's goroutine and waits for it; it returns
// without running fn when the node is closed.
func (h *host) do(fn func()) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	var done chan struct{}
	if k := len(h.dones); k > 0 {
		done, h.dones = h.dones[k-1], h.dones[:k-1]
	} else {
		done = make(chan struct{}, 1)
	}
	h.inbox = append(h.inbox, call{fn, done})
	h.mu.Unlock()
	h.poke()
	<-done
	h.mu.Lock()
	h.dones = append(h.dones, done)
	h.mu.Unlock()
}

// poke leaves the wake token; one is enough for any number of causes.
func (h *host) poke() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

func (h *host) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.poke()
}

// dueBatch bounds how many due callbacks loop runs before it looks at
// its inbox again, so a backlog of arrivals cannot starve a Do.
const dueBatch = 16

// loop is the node's goroutine. It runs what was posted, then what is
// due in the queue, and sleeps until the next due instant on the one
// runtime timer the node holds, or until poked — everything under
// world's read lock, so Quiesce sees every node between dispatches.
// Neither the queue nor the inbox is bounded — node A's dispatch queues
// arrivals on node B and vice versa, so a bound could deadlock the pair
// — and the inbox is double-buffered: it and batch trade places, so a
// stream of Do calls allocates no queue.
func (h *host) loop(world *sync.RWMutex) {
	defer close(h.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	// timerDue is when timer will fire, zero when it is stopped or has
	// fired and been received: Reset needs the channel empty (go.mod's
	// go 1.22 keeps the timer channel buffered).
	var timerDue time.Time
	var batch []call
	for {
		h.mu.Lock()
		batch, h.inbox = h.inbox, batch[:0]
		closed := h.closed
		h.mu.Unlock()
		for i, c := range batch {
			world.RLock()
			c.fn()
			world.RUnlock()
			c.done <- struct{}{}
			batch[i] = call{}
		}
		if closed {
			return
		}
		world.RLock()
		n := h.real.RunDue(dueBatch)
		world.RUnlock()
		if n == dueBatch {
			continue
		}
		// A timer set for no later than due stands: at worst it wakes
		// loop early, for nothing.
		if due, ok := h.real.NextDue(); ok && (timerDue.IsZero() || due.Before(timerDue)) {
			wait := time.Until(due)
			if wait <= 0 {
				continue
			}
			if !timerDue.IsZero() && !timer.Stop() {
				<-timer.C
			}
			timer.Reset(wait)
			timerDue = due
		}
		select {
		case <-h.wake:
		case <-timer.C:
			timerDue = time.Time{}
		}
	}
}
