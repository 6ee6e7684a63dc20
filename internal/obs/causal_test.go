package obs

import (
	"strings"
	"testing"

	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

func TestCausalIDsOnNilObserver(t *testing.T) {
	var o *Observer
	if o.NewEpisode() != 0 || o.NewStep() != 0 {
		t.Fatal("nil observer must allocate only the zero ids")
	}
}

func TestCausalIDsAreFresh(t *testing.T) {
	o := New(nil)
	e1, e2 := o.NewEpisode(), o.NewEpisode()
	s1, s2 := o.NewStep(), o.NewStep()
	if e1 == 0 || e2 == 0 || e1 == e2 {
		t.Fatalf("episodes not fresh: %d, %d", e1, e2)
	}
	if s1 == 0 || s2 == 0 || s1 == s2 {
		t.Fatalf("steps not fresh: %d, %d", s1, s2)
	}
}

// emitEpisode feeds a minimal join cascade into b: root join-send,
// the transport send + forward it causes, the install at S, and the
// terminal consume.
func emitEpisode(b *EpisodeBuilder, ep EpisodeID, base StepID, at eventsim.Time) {
	j := testJoin()
	b.Emit(Event{At: at, Kind: KindJoinSend, NodeName: "r1", Channel: testCh,
		Episode: ep, Step: base, Detail: "first"})
	b.Emit(Event{At: at, Kind: KindSend, NodeName: "r1", Channel: testCh, Msg: j,
		Episode: ep, Step: base + 1, ParentStep: base})
	b.Emit(Event{At: at + 1, Kind: KindForward, NodeName: "A", Channel: testCh, Msg: j,
		Episode: ep, Step: base + 2, ParentStep: base + 1})
	b.Emit(Event{At: at + 2, Kind: KindTableAdd, NodeName: "S", Channel: testCh,
		Episode: ep, Step: base + 3, ParentStep: base + 2, Detail: "mft"})
	b.Emit(Event{At: at + 2, Kind: KindConsume, NodeName: "S", Channel: testCh, Msg: j,
		Episode: ep, Step: base + 4, ParentStep: base + 2})
}

func TestEpisodeBuilderReconstructsCascade(t *testing.T) {
	b := NewEpisodeBuilder(0)
	emitEpisode(b, 1, 10, 5)
	// A quiet episode: data chatter, no mutation.
	b.Emit(Event{At: 9, Kind: KindDeliver, NodeName: "r1", Channel: testCh,
		Episode: 2, Step: 20})
	// Unattributed protocol noise counts; notes and dumps do not.
	b.Emit(Event{Kind: KindForward})
	b.Emit(Event{Kind: KindRecorderDump})
	b.Emit(Event{Kind: KindNote})

	eps := b.Episodes()
	if len(eps) != 2 {
		t.Fatalf("got %d episodes, want 2", len(eps))
	}
	e := eps[0]
	if !e.Structural() || e.Mutations != 1 || !e.Complete() {
		t.Fatalf("join episode misclassified: structural=%v mutations=%d complete=%v",
			e.Structural(), e.Mutations, e.Complete())
	}
	if e.CtrlHops != 1 || e.CtrlBytes == 0 {
		t.Fatalf("control cost not accumulated: %d hops / %d B", e.CtrlHops, e.CtrlBytes)
	}
	if want := "receiver join (first) — r1"; e.RootCause() != want {
		t.Fatalf("root cause %q, want %q", e.RootCause(), want)
	}
	if eps[1].Structural() {
		t.Fatal("data-delivery episode classified structural")
	}

	out := b.Render()
	if !strings.Contains(out, "1 structural shown, 1 quiet suppressed") {
		t.Fatalf("summary line wrong:\n%s", out)
	}
	if !strings.Contains(out, "1 unattributed events") {
		t.Fatalf("unattributed count wrong (span/note must not count):\n%s", out)
	}
	// Causal depth: the table add sits three levels under the root.
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, "TABLE-ADD") {
			if !strings.Contains(ln, "      S TABLE-ADD") {
				t.Fatalf("table add not indented to its causal depth: %q", ln)
			}
		}
	}
	if !strings.Contains(out, "complete") {
		t.Fatalf("episode state missing:\n%s", out)
	}
}

func TestEpisodeInFlightAndPacketFree(t *testing.T) {
	b := NewEpisodeBuilder(0)
	// A send with no terminal: still in flight.
	b.Emit(Event{At: 1, Kind: KindJoinSend, NodeName: "r1", Channel: testCh, Episode: 1, Step: 1})
	b.Emit(Event{At: 1, Kind: KindSend, NodeName: "r1", Channel: testCh, Msg: testJoin(),
		Episode: 1, Step: 2, ParentStep: 1})
	b.Emit(Event{At: 1, Kind: KindTableAdd, NodeName: "A", Channel: testCh,
		Episode: 1, Step: 3, ParentStep: 2, Detail: "mct"})
	// A packet-free expiry: complete by definition.
	b.Emit(Event{At: 2, Kind: KindTableRemove, NodeName: "S", Channel: testCh,
		Episode: 2, Step: 4, Detail: "mft"})
	eps := b.Episodes()
	if eps[0].Complete() {
		t.Fatal("cascade with no terminal reported complete")
	}
	if !eps[1].Complete() {
		t.Fatal("packet-free expiry reported in flight")
	}
	if want := "soft-state expiry at S"; eps[1].RootCause() != want {
		t.Fatalf("root cause %q, want %q", eps[1].RootCause(), want)
	}
	if !strings.Contains(b.Render(), "in flight") {
		t.Fatal("render missing in-flight state")
	}
}

func TestEpisodeRootCauseVocabulary(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindJoinSend, NodeName: "r", Detail: "refresh"}, "receiver join (refresh) — r"},
		{Event{Kind: KindFault, NodeName: "x"}, "fault injection"},
		{Event{Kind: KindTreeSend, NodeName: "S"}, "tree refresh from S"},
		{Event{Kind: KindSendDirect, NodeName: "S"}, "send-direct from S"},
		{Event{Kind: KindReplicate, NodeName: "S"}, "replicate at S"},
	} {
		b := NewEpisodeBuilder(0)
		tc.ev.Episode = 7
		b.Emit(tc.ev)
		if got := b.Episodes()[0].RootCause(); got != tc.want {
			t.Errorf("root cause for %v = %q, want %q", tc.ev.Kind, got, tc.want)
		}
	}
}

func TestEpisodeBuilderEvictsOldest(t *testing.T) {
	b := NewEpisodeBuilder(2)
	b.ShowAll = true
	for ep := EpisodeID(1); ep <= 3; ep++ {
		b.Emit(Event{At: eventsim.Time(ep), Kind: KindJoinSend, NodeName: "r1",
			Channel: testCh, Episode: ep, Step: StepID(ep)})
	}
	eps := b.Episodes()
	if len(eps) != 2 || eps[0].ID != 2 || eps[1].ID != 3 {
		t.Fatalf("eviction kept wrong episodes: %+v", eps)
	}
	if !strings.Contains(b.Render(), "2 structural shown") {
		t.Log(b.Render())
	}
}

func TestConvergeTrackerQuiescence(t *testing.T) {
	tr := NewConvergeTracker()
	// Unknown channel: trivially quiescent.
	if !tr.Quiescent(testCh, 100, 10) {
		t.Fatal("unknown channel not quiescent")
	}
	// Control in flight with no mutation ever: quiescent. Nothing is
	// drained here; in-flight messages never withhold quiescence.
	j := testJoin()
	tr.Apply(Event{At: 1, Kind: KindSend, Channel: testCh, Msg: j})
	tr.Apply(Event{At: 2, Kind: KindForward, Channel: testCh, Msg: j})
	if !tr.Quiescent(testCh, 2, 10) {
		t.Fatal("control in flight withheld quiescence on an unmutated channel")
	}
	// The window starts at the mutation and ends exactly settle later.
	tr.Apply(Event{At: 3, Kind: KindTableAdd, Channel: testCh, Episode: 5})
	if tr.Quiescent(testCh, 12.5, 10) {
		t.Fatal("quiescent inside the settle window")
	}
	if !tr.Quiescent(testCh, 13, 10) {
		t.Fatal("not quiescent exactly one window after the mutation")
	}
	// More chatter in flight after the window: still quiescent.
	tr.Apply(Event{At: 14, Kind: KindSend, Channel: testCh, Msg: j})
	if !tr.Quiescent(testCh, 14, 10) {
		t.Fatal("in-flight refresh chatter broke quiescence")
	}
	// A fresh mutation restarts the window from its own time.
	tr.Apply(Event{At: 16, Kind: KindTableAdd, Channel: testCh, Episode: 6})
	if tr.Quiescent(testCh, 25.9, 10) {
		t.Fatal("a mutation did not restart the window")
	}
	if !tr.Quiescent(testCh, 26, 10) {
		t.Fatal("not quiescent one window after the restarting mutation")
	}

	c := tr.Channel(testCh)
	if c.CtrlSends != 2 || c.CtrlHops != 1 || c.Mutations != 2 || c.LastEpisode != 6 {
		t.Fatalf("channel state wrong: %+v", c)
	}
	if chans := tr.Channels(); len(chans) != 1 || chans[0] != testCh {
		t.Fatalf("channels list wrong: %v", chans)
	}
}

func TestConvergeTrackerIgnoresDataAndChannelless(t *testing.T) {
	tr := NewConvergeTracker()
	d := &packet.Data{Header: packet.Header{Type: packet.TypeData, Channel: testCh,
		Src: testS, Dst: testR}, Seq: 1}
	tr.Apply(Event{At: 1, Kind: KindSend, Channel: testCh, Msg: d})
	tr.Apply(Event{At: 1, Kind: KindForward, Channel: testCh, Msg: d})
	tr.Apply(Event{At: 1, Kind: KindSend, Msg: testJoin()}) // no channel
	tr.Apply(Event{At: 1, Kind: KindJoinSend, Channel: testCh})
	tr.Apply(Event{At: 2, Kind: KindDrop, Channel: testCh, Msg: testJoin()})
	if c := tr.Channel(testCh); c.CtrlSends != 0 || c.CtrlHops != 0 || c.CtrlBytes != 0 || c.MutationAny {
		t.Fatalf("data, channel-less or terminal traffic leaked into the ledger: %+v", c)
	}
}

func TestConvergeTrackerResetAndObserverWiring(t *testing.T) {
	o := New(nil)
	if o.Convergence() != nil {
		t.Fatal("tracker present before EnableConvergence")
	}
	tr := o.EnableConvergence()
	if tr == nil || o.EnableConvergence() != tr || o.Convergence() != tr {
		t.Fatal("EnableConvergence not idempotent")
	}
	o.Emit(Event{Kind: KindSend, Channel: testCh, Msg: testJoin()})
	if len(tr.Channels()) != 1 {
		t.Fatal("tracker not fed by the observer")
	}
	tr.Reset()
	if len(tr.Channels()) != 0 || tr.Channel(testCh).CtrlSends != 0 {
		t.Fatal("reset left state behind")
	}
	if !tr.Quiescent(testCh, 0, 10) {
		t.Fatal("reset tracker not quiescent")
	}
}
