// Package softstate is the kit HBH and REUNITE are both built from.
// The paper constructs HBH on REUNITE's machinery — the same two
// tables (MCT/MFT), the same (t1, t2) soft-state timers, the same
// periodic join and tree refresh, the same recursive-unicast data
// rewrite — and changes only what an entry points at and the
// join/tree/fusion rules. That machinery lives here once; packages
// core and reunite hold only protocol rules.
//
// Whatever the kit needs to know about a protocol arrives as a value at
// attach time (the wire protocol id, whether first joins are flagged,
// which entries the source skips); nothing in here branches on which
// protocol is running. Where sharing would need such a branch, the code
// stays in its protocol package.
package softstate

import (
	"fmt"

	"hbh/internal/eventsim"
)

// Config carries the soft-state timing constants both protocols run
// under, so every comparison sees identical sizing. All durations are
// in simulator time units; one unit equals one unit of link cost, and
// link costs are drawn from [1,10], so end-to-end delays are tens of
// units. The defaults keep every refresh interval comfortably above the
// network diameter and every timeout above three refresh intervals, the
// usual soft-state sizing.
type Config struct {
	// JoinInterval is the period of receiver (and branching-router)
	// join refreshes.
	JoinInterval eventsim.Time
	// TreeInterval is the period of the source's tree emission.
	TreeInterval eventsim.Time
	// T1 is the staleness timeout of table entries: an entry not
	// refreshed for T1 goes stale.
	T1 eventsim.Time
	// T2 is the destruction timeout: a stale entry not refreshed for a
	// further T2 is deleted.
	T2 eventsim.Time
}

// DefaultConfig returns the timing used by all experiments:
// join/tree period 100, T1 = 3.5 periods, T2 = 3.5 periods.
func DefaultConfig() Config {
	return Config{JoinInterval: 100, TreeInterval: 100, T1: 350, T2: 350}
}

// Generation is T1 + T2, the lifetime of an entry that stops being
// refreshed: stale after T1, destroyed T2 later. It is also the
// convergence window: until a whole generation passes with no
// structural change, some entry may still be on its way out.
func (c Config) Generation() eventsim.Time { return c.T1 + c.T2 }

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.JoinInterval <= 0 || c.TreeInterval <= 0 {
		return fmt.Errorf("softstate: non-positive refresh interval %v/%v", c.JoinInterval, c.TreeInterval)
	}
	if c.T1 <= c.JoinInterval || c.T1 <= c.TreeInterval {
		return fmt.Errorf("softstate: T1 %v must exceed the refresh intervals", c.T1)
	}
	if c.T2 <= 0 {
		return fmt.Errorf("softstate: non-positive T2 %v", c.T2)
	}
	return nil
}
