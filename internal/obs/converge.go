package obs

import (
	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

// ConvergeTracker measures convergence per <S,G> channel from the
// event stream: the time of the last structural table mutation and the
// cumulative control-plane cost (originations, link crossings, wire
// bytes). Like the counter registry it sees every event unfiltered,
// consumes no randomness and schedules nothing, so attaching it cannot
// perturb a seeded simulation.
//
// Quiescence — "no structural mutation for a whole settle window" — is
// the one convergence rule; callers pass the window, one soft-state
// generation (softstate.Config.Generation).
type ConvergeTracker struct {
	chans map[addr.Channel]*ChannelConvergence
	order []addr.Channel
}

// ChannelConvergence is the live convergence state of one channel.
type ChannelConvergence struct {
	// Channel is the <S,G> pair tracked.
	Channel addr.Channel
	// LastMutation is the virtual time of the last structural table
	// mutation (table add/remove, branch, collapse, fusion accept);
	// LastEpisode the causal episode it belonged to. MutationAny is
	// false until the first mutation.
	LastMutation eventsim.Time
	LastEpisode  EpisodeID
	MutationAny  bool
	// BurstStart is the time of the first mutation of the current
	// convergence burst: it restarts whenever a mutation lands on a
	// channel previously marked converged (see MarkConverged).
	// Converged is the probe-maintained convergence flag — set by
	// MarkConverged once Quiescent holds, withdrawn by the next
	// mutation.
	BurstStart eventsim.Time
	Converged  bool
	// Mutations counts structural mutations.
	Mutations int
	// CtrlSends counts control-message originations, CtrlHops their
	// link crossings, CtrlBytes the wire bytes those crossings carried.
	CtrlSends int
	CtrlHops  int
	CtrlBytes int
}

// NewConvergeTracker builds an empty tracker.
func NewConvergeTracker() *ConvergeTracker {
	return &ConvergeTracker{chans: make(map[addr.Channel]*ChannelConvergence)}
}

// EnableConvergence attaches (and returns) the convergence tracker; it
// is applied to every event, unfiltered, like the counter registry.
func (o *Observer) EnableConvergence() *ConvergeTracker {
	if o.converge == nil {
		o.converge = NewConvergeTracker()
	}
	return o.converge
}

// Convergence returns the tracker (nil when not enabled).
func (o *Observer) Convergence() *ConvergeTracker { return o.converge }

// Reset clears all per-channel state. Experiment drivers that reuse
// one observer across independent runs call it between runs so a
// previous run's clock (which restarts at zero) cannot masquerade as a
// recent mutation.
func (t *ConvergeTracker) Reset() {
	t.chans = make(map[addr.Channel]*ChannelConvergence)
	t.order = t.order[:0]
}

func (t *ConvergeTracker) channel(ch addr.Channel) *ChannelConvergence {
	c := t.chans[ch]
	if c == nil {
		c = &ChannelConvergence{Channel: ch}
		t.chans[ch] = c
		t.order = append(t.order, ch)
	}
	return c
}

// Apply folds one event into the tracker.
func (t *ConvergeTracker) Apply(ev Event) { t.apply(&ev) }

func (t *ConvergeTracker) apply(ev *Event) {
	var zero addr.Channel
	if ev.Channel == zero {
		return
	}
	if episodeMutation(ev.Kind) {
		c := t.channel(ev.Channel)
		if c.Converged || !c.MutationAny {
			c.BurstStart = ev.At
			c.Converged = false
		}
		c.LastMutation = ev.At
		c.LastEpisode = ev.Episode
		c.MutationAny = true
		c.Mutations++
		return
	}
	// Control-message cost: only transport events carry Msg.
	if ev.Msg == nil {
		return
	}
	if _, isData := ev.Msg.(*packet.Data); isData {
		return
	}
	switch ev.Kind {
	case KindSend, KindSendDirect:
		t.channel(ev.Channel).CtrlSends++
	case KindForward:
		c := t.channel(ev.Channel)
		c.CtrlHops++
		c.CtrlBytes += packet.WireBytes(ev.Msg)
	}
}

// Channel returns a snapshot of one channel's convergence state (the
// zero value if the channel has produced no events).
func (t *ConvergeTracker) Channel(ch addr.Channel) ChannelConvergence {
	if c := t.chans[ch]; c != nil {
		return *c
	}
	return ChannelConvergence{Channel: ch}
}

// Channels lists the tracked channels in first-seen order.
func (t *ConvergeTracker) Channels() []addr.Channel {
	out := make([]addr.Channel, len(t.order))
	copy(out, t.order)
	return out
}

// Quiescent reports whether the channel has converged as of now: no
// structural mutation for at least settle. Control messages in flight
// do not count: a converged tree's refresh chatter never stops, and
// should a message mutate anything after all, LastMutation moves and
// quiescence is withdrawn at the next probe.
func (t *ConvergeTracker) Quiescent(ch addr.Channel, now, settle eventsim.Time) bool {
	c := t.chans[ch]
	return c == nil || !c.MutationAny || now-c.LastMutation >= settle
}

// MarkConverged records that a quiescence probe found the channel
// converged. The first call after a mutation burst returns the burst
// duration (first to last mutation of the burst) and newly=true — the
// sample the convergence-time histogram wants; repeat calls, calls on
// an untracked channel, and calls before any mutation return
// newly=false. The flag is withdrawn automatically by the next
// structural mutation, which also starts the next burst.
func (t *ConvergeTracker) MarkConverged(ch addr.Channel) (took eventsim.Time, newly bool) {
	c := t.chans[ch]
	if c == nil || c.Converged || !c.MutationAny {
		return 0, false
	}
	c.Converged = true
	return c.LastMutation - c.BurstStart, true
}
