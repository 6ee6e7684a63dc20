package main

import "time"

// budget decides how many rounds of identical work fit the run's
// --seconds: rounds are fixed work, not fixed time, so a faster machine
// runs more of them and every one measures the same thing.
type budget struct {
	start   time.Time
	length  time.Duration
	opened  time.Time
	longest time.Duration
	n, min  int
	quick   bool
}

// traceShare is the part of a traced run's --seconds spent on the
// workload itself; the rest goes to the per-layer suite.
const traceShare = 0.3

func newBudget(cfg runCfg) *budget {
	b := &budget{start: time.Now(), length: time.Duration(cfg.seconds * float64(time.Second)), min: 3, quick: cfg.quick}
	if cfg.trace {
		// A traced run alternates untraced and traced rounds and needs
		// two of each for a ratio of medians.
		b.length = time.Duration(traceShare * float64(b.length))
		b.min = 4
	}
	if cfg.quick {
		b.min = 1
		if cfg.trace {
			b.min = 2
		}
	}
	b.opened = b.start
	return b
}

// more reports whether another round fits.
func (b *budget) more() bool {
	if b.n < b.min {
		return true
	}
	return !b.quick && time.Since(b.start)+b.longest <= b.length
}

// done closes the round more opened.
func (b *budget) done() {
	now := time.Now()
	if d := now.Sub(b.opened); d > b.longest {
		b.longest = d
	}
	b.opened = now
	b.n++
}
