// Causal tracing: every packet in flight carries a (episode, step)
// pair as in-band simulator metadata (netsim envelopes — the wire
// format is untouched), and every emitted event is stamped with the
// pair plus the step that caused it. The result is a causal DAG per
// <S,G> episode: a receiver's join roots an episode, the join's hops,
// the interception that answers it, the table entry it installs, the
// tree refreshes that entry triggers later, and the fusion rewrite
// those trees provoke all chain back to that root.
//
// Episode roots are the protocol's spontaneous actions — the events
// that happen because of a timer or an external hand, not because a
// packet arrived: a receiver's (first or refresh) join, a soft-state
// expiry, a fault injection, PIM's central tree build. Everything
// caused by a received packet inherits the packet's episode.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

// EpisodeID identifies one causal episode. Zero means "unattributed".
type EpisodeID uint64

// StepID identifies one event in an episode's causal DAG. Zero means
// "no step" (the event is a root, or causal tracing is off).
type StepID uint64

// Causal is the (episode, step) pair threaded through the simulator:
// Episode names the cascade, Step the most recent event in it — the
// parent of whatever happens next in this context.
type Causal struct {
	Episode EpisodeID
	Step    StepID
}

// NewEpisode allocates a fresh episode id. Safe on a nil observer
// (returns 0, the unattributed episode).
func (o *Observer) NewEpisode() EpisodeID {
	if o == nil {
		return 0
	}
	o.episodeSeq++
	return EpisodeID(o.episodeSeq)
}

// NewStep allocates a fresh causal step id. Safe on a nil observer.
func (o *Observer) NewStep() StepID {
	if o == nil {
		return 0
	}
	o.stepSeq++
	return StepID(o.stepSeq)
}

// SeedCausal starts the episode and step counters at base instead of
// zero. Each hbhd daemon seeds a disjoint namespace (derived from its
// lowest hosted node ID), so causal ids stamped by different processes
// never collide when their per-daemon trace files are merged into one
// cross-process timeline.
func (o *Observer) SeedCausal(base uint64) {
	o.episodeSeq = base
	o.stepSeq = base
}

// episodeMutation reports whether the kind is a structural table
// mutation — the events that mean "the tree changed shape". The
// convergence detector and the episode renderer's quiet-episode filter
// share this definition, and through the detector's per-channel
// Mutations count so do the stability experiment's state changes and
// the continuous invariant checker.
func episodeMutation(k Kind) bool {
	switch k {
	case KindTableAdd, KindTableRemove, KindBranch, KindCollapse, KindFusionAccept,
		KindMarkLift:
		return true
	}
	return false
}

// terminalKind reports whether the kind ends a packet's life.
func terminalKind(k Kind) bool {
	return k == KindConsume || k == KindDeliver || k == KindDrop
}

// episodeEvent is one recorded event of an episode, pre-rendered: the
// simulator forwards packets zero-copy and rewrites them in place, so
// holding Msg pointers would silently revise history (same rule as the
// flight recorder).
type episodeEvent struct {
	at     eventsim.Time
	kind   Kind
	step   StepID
	parent StepID
	line   string
}

// Episode is one reconstructed causal cascade.
type Episode struct {
	ID EpisodeID
	// Root is the first event observed with this episode id; RootAt its
	// time and RootLine its rendered form.
	rootKind   Kind
	rootDetail string
	rootNode   string
	rootAt     eventsim.Time
	lastAt     eventsim.Time
	events     []episodeEvent
	// Mutations counts structural table mutations in the episode;
	// CtrlHops/CtrlBytes the control-plane link crossings and wire bytes
	// it cost; terminals the packets that ended inside it.
	Mutations int
	CtrlHops  int
	CtrlBytes int
	sends     int
	terminals int
}

// RootCause classifies what started the episode, from its root event.
func (e *Episode) RootCause() string {
	switch e.rootKind {
	case KindJoinSend:
		if e.rootDetail == "first" {
			return fmt.Sprintf("receiver join (first) — %s", e.rootNode)
		}
		return fmt.Sprintf("receiver join (refresh) — %s", e.rootNode)
	case KindFault:
		return "fault injection"
	case KindTableRemove:
		return fmt.Sprintf("soft-state expiry at %s", e.rootNode)
	case KindTreeSend:
		return fmt.Sprintf("tree refresh from %s", e.rootNode)
	case KindSend, KindSendDirect:
		return fmt.Sprintf("%s from %s", e.rootKind, e.rootNode)
	default:
		return fmt.Sprintf("%s at %s", e.rootKind, e.rootNode)
	}
}

// Complete reports whether the cascade is not purely in flight at the
// end of the run: at least one of its packets reached a terminal event
// (consume, deliver or drop), or it originated no packets at all (a
// pure table mutation, like an expiry).
func (e *Episode) Complete() bool { return e.terminals > 0 || e.sends == 0 }

// Structural reports whether the episode mutated any table (or is a
// fault): the episodes worth a full timeline. Refresh chatter and data
// delivery episodes are "quiet".
func (e *Episode) Structural() bool {
	return e.Mutations > 0 || e.rootKind == KindFault
}

// EpisodeBuilder is a Sink that groups causally stamped events into
// episodes and renders them as indented virtual-time timelines. Events
// without an episode id (causal tracing off, or pre-root chatter) are
// counted but not retained.
type EpisodeBuilder struct {
	max          int
	order        []EpisodeID
	eps          map[EpisodeID]*Episode
	unattributed int
	// ShowAll renders quiet (non-structural) episodes too.
	ShowAll bool
}

// DefaultEpisodeCap bounds how many episodes a builder retains; long
// runs generate one episode per refresh cycle per receiver, and the
// oldest are evicted first once the cap is hit.
const DefaultEpisodeCap = 4096

// NewEpisodeBuilder builds an episode-reconstructing sink retaining at
// most max episodes (DefaultEpisodeCap if max <= 0).
func NewEpisodeBuilder(max int) *EpisodeBuilder {
	if max <= 0 {
		max = DefaultEpisodeCap
	}
	return &EpisodeBuilder{max: max, eps: make(map[EpisodeID]*Episode)}
}

// Emit implements Sink.
func (b *EpisodeBuilder) Emit(ev Event) {
	ctrlHop, ctrlBytes := false, 0
	if ev.Kind == KindForward && ev.Msg != nil {
		if _, isData := ev.Msg.(*packet.Data); !isData {
			ctrlHop = true
			ctrlBytes = packet.WireBytes(ev.Msg)
		}
	}
	b.add(ev, Line(ev), ctrlHop, ctrlBytes)
}

// add folds one event with its pre-rendered line; the live path (Emit)
// and the replay path (EmitReplay) share it.
func (b *EpisodeBuilder) add(ev Event, line string, ctrlHop bool, ctrlBytes int) {
	if ev.Episode == 0 {
		// Notes and recorder dumps are not causal events; only
		// protocol/transport events count as unattributed.
		switch ev.Kind {
		case KindNote, KindRecorderDump:
		default:
			b.unattributed++
		}
		return
	}
	e := b.eps[ev.Episode]
	if e == nil {
		if len(b.order) >= b.max {
			oldest := b.order[0]
			b.order = b.order[1:]
			delete(b.eps, oldest)
		}
		e = &Episode{
			ID: ev.Episode, rootKind: ev.Kind, rootDetail: ev.Detail,
			rootNode: ev.NodeName, rootAt: ev.At,
		}
		if e.rootNode == "" {
			e.rootNode = ev.Node.String()
		}
		b.order = append(b.order, ev.Episode)
		b.eps[ev.Episode] = e
	}
	e.lastAt = ev.At
	if episodeMutation(ev.Kind) {
		e.Mutations++
	}
	if ev.Kind == KindSend || ev.Kind == KindSendDirect {
		e.sends++
	}
	if terminalKind(ev.Kind) {
		e.terminals++
	}
	if ctrlHop {
		e.CtrlHops++
		e.CtrlBytes += ctrlBytes
	}
	e.events = append(e.events, episodeEvent{
		at: ev.At, kind: ev.Kind, step: ev.Step, parent: ev.ParentStep,
		line: line,
	})
}

// Episodes returns the retained episodes in first-seen order.
func (b *EpisodeBuilder) Episodes() []*Episode {
	out := make([]*Episode, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.eps[id])
	}
	return out
}

// Render writes the reconstructed timelines: one indented block per
// structural episode (every episode with ShowAll), children nested
// under the step that caused them, with a one-line summary of the
// quiet episodes suppressed.
func (b *EpisodeBuilder) Render() string {
	var w strings.Builder
	shown, quiet := 0, 0
	for _, id := range b.order {
		if b.eps[id].Structural() || b.ShowAll {
			shown++
		} else {
			quiet++
		}
	}
	fmt.Fprintf(&w, "causal episodes: %d structural shown, %d quiet suppressed (refresh and data traffic), %d unattributed events\n",
		shown, quiet, b.unattributed)
	for _, id := range b.order {
		e := b.eps[id]
		if !e.Structural() && !b.ShowAll {
			continue
		}
		w.WriteByte('\n')
		b.renderEpisode(&w, e)
	}
	return w.String()
}

func (b *EpisodeBuilder) renderEpisode(w *strings.Builder, e *Episode) {
	state := "complete"
	if !e.Complete() {
		state = "in flight"
	}
	fmt.Fprintf(w, "episode %d: %s @ %.1f — %d events, %d mutations, ctrl %d hops / %d B, %s, span %.1f..%.1f\n",
		uint64(e.ID), e.RootCause(), e.rootAt, len(e.events), e.Mutations,
		e.CtrlHops, e.CtrlBytes, state, e.rootAt, e.lastAt)
	// Depth = position in the parent-step chain. Steps outside the
	// episode's own recorded set (an event caused by a step of another
	// retained window) render at depth 0.
	depth := make(map[StepID]int, len(e.events))
	order := make([]episodeEvent, len(e.events))
	copy(order, e.events)
	sort.SliceStable(order, func(i, j int) bool { return order[i].step < order[j].step })
	for _, ev := range order {
		d := 0
		if ev.parent != 0 {
			if pd, ok := depth[ev.parent]; ok {
				d = pd + 1
			}
		}
		if ev.step != 0 {
			depth[ev.step] = d
		}
	}
	for _, ev := range e.events {
		d := 0
		if ev.step != 0 {
			d = depth[ev.step]
		} else if ev.parent != 0 {
			if pd, ok := depth[ev.parent]; ok {
				d = pd + 1
			}
		}
		fmt.Fprintf(w, "%9.1f  %s%s\n", ev.at, strings.Repeat("  ", d), ev.line)
	}
}
