package core

import (
	"math/rand"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
)

// causalLog is an obs.Sink retaining the causal stamp of every event.
// Msg is cleared before retention (the simulator forwards packets
// zero-copy and may rewrite them in place later).
type causalLog struct{ events []obs.Event }

func (l *causalLog) Emit(ev obs.Event) {
	ev.Msg = nil
	l.events = append(l.events, ev)
}

// checkCausalProperties asserts the two structural invariants of the
// causal stamps over a whole event log:
//
//  1. channel isolation — an episode never spans two <S,G> channels:
//     every channel-carrying event of an episode names the same channel;
//  2. DAG closure — an event's parent step, when it was observed at
//     all, belongs to the same episode as the event itself.
//
// It returns the set of episodes seen per channel for further
// scenario-specific assertions.
func checkCausalProperties(t *testing.T, events []obs.Event) map[addr.Channel]map[obs.EpisodeID]bool {
	t.Helper()
	var zero addr.Channel
	epChannel := make(map[obs.EpisodeID]addr.Channel)
	stepEpisode := make(map[obs.StepID]obs.EpisodeID)
	byChannel := make(map[addr.Channel]map[obs.EpisodeID]bool)
	attributed := 0
	for _, ev := range events {
		if ev.Episode == 0 {
			continue
		}
		attributed++
		if ev.Channel != zero {
			if ch, ok := epChannel[ev.Episode]; ok {
				if ch != ev.Channel {
					t.Fatalf("episode %d leaked across channels: saw both %v and %v (event %s at %s)",
						ev.Episode, ch, ev.Channel, ev.Kind, ev.NodeName)
				}
			} else {
				epChannel[ev.Episode] = ev.Channel
			}
			if byChannel[ev.Channel] == nil {
				byChannel[ev.Channel] = make(map[obs.EpisodeID]bool)
			}
			byChannel[ev.Channel][ev.Episode] = true
		}
		if ev.Step != 0 {
			if prior, dup := stepEpisode[ev.Step]; dup && prior != ev.Episode {
				t.Fatalf("step %d reused across episodes %d and %d", ev.Step, prior, ev.Episode)
			}
			stepEpisode[ev.Step] = ev.Episode
		}
		if ev.ParentStep != 0 {
			if pe, ok := stepEpisode[ev.ParentStep]; ok && pe != ev.Episode {
				t.Fatalf("event %s at %s in episode %d has parent step %d from episode %d",
					ev.Kind, ev.NodeName, ev.Episode, ev.ParentStep, pe)
			}
		}
	}
	if attributed == 0 {
		t.Fatal("no causally attributed events recorded")
	}
	return byChannel
}

// firstJoinEpisodes collects the episode ids of the "first" (non-
// refresh) joins emitted by the named node.
func firstJoinEpisodes(events []obs.Event, node string) []obs.EpisodeID {
	var out []obs.EpisodeID
	for _, ev := range events {
		if ev.Kind == obs.KindJoinSend && ev.NodeName == node && ev.Detail == "first" {
			out = append(out, ev.Episode)
		}
	}
	return out
}

// TestCausalEpisodeIsolation: two channels share every router of a
// chain while one receiver leaves and rejoins — causal episode ids
// must never leak across <S,G> channels, parent steps must resolve
// within their own episode, and the join at t1 and the rejoin at t2
// must root distinct episodes.
func TestCausalEpisodeIsolation(t *testing.T) {
	g := topology.Line(6, true)
	h := newHarness(t, g)
	log := &causalLog{}
	o := obs.New(nil)
	o.AddSink(log)
	h.net.SetObserver(o)

	srcA := h.source(hostOf(g, 0))
	srcB := AttachSource(h.net.Node(hostOf(g, 5)), addr.GroupAddr(9), h.cfg)

	rA2 := h.receiver(hostOf(g, 2), srcA.Channel())
	rA4 := h.receiver(hostOf(g, 4), srcA.Channel())
	rB1 := h.receiver(hostOf(g, 1), srcB.Channel())
	rB3 := h.receiver(hostOf(g, 3), srcB.Channel())

	h.sim.At(10, rA2.Join)
	h.sim.At(15, rB1.Join)
	h.sim.At(40, rA4.Join)
	h.sim.At(45, rB3.Join)
	// rA2 leaves, its soft state expires, and it rejoins much later:
	// the rejoin is a new subscription and must root a new episode.
	h.sim.At(300, rA2.Leave)
	rejoinAt := 300 + 4*(h.cfg.T1+h.cfg.T2)
	h.sim.At(rejoinAt, rA2.Join)
	h.converge(t)

	byChannel := checkCausalProperties(t, log.events)
	if len(byChannel[srcA.Channel()]) == 0 || len(byChannel[srcB.Channel()]) == 0 {
		t.Fatalf("expected episodes on both channels, got %d and %d",
			len(byChannel[srcA.Channel()]), len(byChannel[srcB.Channel()]))
	}

	name := h.net.Node(hostOf(g, 2)).Name()
	roots := firstJoinEpisodes(log.events, name)
	if len(roots) != 2 {
		t.Fatalf("receiver %s emitted %d first joins, want 2 (join + rejoin)", name, len(roots))
	}
	if roots[0] == roots[1] {
		t.Errorf("join at t=10 and rejoin at t=%v share episode %d, want distinct roots",
			rejoinAt, roots[0])
	}
}

// TestCausalIsolationUnderLoss: the same invariants hold when the
// adversary's uniform loss kills control packets mid-flight — a join
// cascade that dies on the wire stays inside its own episode (the drop
// is its terminal event), and the next refresh roots a fresh episode
// rather than reviving the dead one's ids.
func TestCausalIsolationUnderLoss(t *testing.T) {
	g := topology.Line(6, true)
	h := newQuietHarness(g)
	log := &causalLog{}
	o := obs.New(nil)
	o.AddSink(log)
	h.net.SetObserver(o)
	h.net.SetAdversary(netsim.Adversary{Loss: 0.3, RNG: rand.New(rand.NewSource(7))})

	src := AttachSource(h.net.Node(hostOf(g, 0)), srcGroup, h.cfg)
	r2 := h.receiver(hostOf(g, 2), src.Channel())
	r4 := h.receiver(hostOf(g, 4), src.Channel())
	h.sim.At(10, r2.Join)
	h.sim.At(40, r4.Join)
	if err := h.sim.Run(h.sim.Now() + 40*h.cfg.TreeInterval); err != nil {
		t.Fatalf("run: %v", err)
	}

	checkCausalProperties(t, log.events)

	lossDrops := 0
	for _, ev := range log.events {
		if ev.Kind == obs.KindDrop && ev.Cause == obs.CauseAdvLoss && ev.Episode != 0 {
			lossDrops++
		}
	}
	if lossDrops == 0 {
		t.Fatal("adversary dropped no attributed control packet; the mid-flight-death case was not exercised")
	}
}
