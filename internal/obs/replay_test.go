package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	wall := int64(1_000_000_000)
	sink := NewJSONLSink(&buf)
	sink.Wall = func() int64 { wall += 1_000_000; return wall }

	j := testJoin()
	events := []Event{
		{At: 1.5, Kind: KindJoinSend, Node: testR, NodeName: "r1", Channel: testCh,
			Episode: 7, Step: 7, Detail: "first"},
		{At: 1.6, Kind: KindForward, Node: testS, NodeName: "h2", PeerName: "h3",
			Channel: testCh, Msg: j, Episode: 7, Step: 8, ParentStep: 7},
		{At: 2.0, Kind: KindDrop, NodeName: "h3", Cause: CauseLinkDown, Msg: j,
			Channel: testCh, Episode: 7, Step: 9, ParentStep: 8},
	}
	for _, ev := range events {
		sink.Emit(ev)
	}

	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i, re := range got {
		want := events[i]
		if re.Kind != want.Kind || re.NodeName != want.NodeName || re.Channel != want.Channel ||
			re.Episode != want.Episode || re.Step != want.Step || re.ParentStep != want.ParentStep ||
			re.At != want.At || re.Cause != want.Cause || re.Detail != want.Detail {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, re, want)
		}
		if re.Wall == 0 {
			t.Fatalf("event %d lost its wall stamp", i)
		}
		if (want.Msg != nil) != re.HasMsg {
			t.Fatalf("event %d msg presence mismatch", i)
		}
	}
	// The replayed render matches the live render.
	if line := lineMsg(got[1].Event, got[1].MsgText, got[1].HasMsg); line != Line(events[1]) {
		t.Fatalf("replay render %q != live render %q", line, Line(events[1]))
	}
}

// TestParseJSONLEveryKindAndCause sends every Kind and every Cause
// through JSONLSink and ParseJSONL: each must come back as itself, not
// as the KindNote / CauseNone a name the parser does not know becomes.
func TestParseJSONLEveryKindAndCause(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var sent []Event
	for k := Kind(0); k < numKinds; k++ {
		sent = append(sent, Event{Kind: k, NodeName: "a"})
	}
	for c := Cause(0); c < numCauses; c++ {
		sent = append(sent, Event{Kind: KindDrop, Cause: c, NodeName: "a"})
	}
	for _, ev := range sent {
		sink.Emit(ev)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sent) {
		t.Fatalf("parsed %d events, want %d", len(got), len(sent))
	}
	for i, re := range got {
		if re.Kind != sent[i].Kind || re.Cause != sent[i].Cause {
			t.Errorf("%v/%q came back as %v/%q", sent[i].Kind, sent[i].Cause, re.Kind, re.Cause)
		}
	}
}

func TestParseJSONLRejectsDamage(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("{\"t\":1}\nnot json\n")); err == nil {
		t.Fatal("damaged line accepted")
	}
	evs, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank input: %v, %d events", err, len(evs))
	}
}

func TestLoadCausalFilesMergesAcrossProcesses(t *testing.T) {
	// Two daemons trace halves of one episode: the receiver's first
	// join (episode rooted in daemon A's namespace) and the upstream
	// mutation it causes (daemon B). Wall stamps interleave them.
	dir := t.TempDir()
	write := func(name string, wallBase int64, events []Event) string {
		var buf bytes.Buffer
		wall := wallBase
		sink := NewJSONLSink(&buf)
		sink.Wall = func() int64 { wall += 2_000_000; return wall }
		for _, ev := range events {
			sink.Emit(ev)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	const ep = EpisodeID(1 << 40)
	fileA := write("a.jsonl", 1_000_000_000, []Event{
		{At: 0.1, Kind: KindJoinSend, NodeName: "r1", Channel: testCh,
			Episode: ep, Step: StepID(ep) + 1, Detail: "first"},
		{At: 0.2, Kind: KindForward, NodeName: "r1", PeerName: "h4",
			Channel: testCh, Msg: testJoin(), Episode: ep, Step: StepID(ep) + 2, ParentStep: StepID(ep) + 1},
	})
	fileB := write("b.jsonl", 1_003_000_000, []Event{
		{At: 9.7, Kind: KindTableAdd, NodeName: "h4", Channel: testCh,
			Episode: ep, Step: StepID(ep) + 3, ParentStep: StepID(ep) + 2},
	})

	b, err := LoadCausalFiles([]string{fileB, fileA}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	eps := b.Episodes()
	if len(eps) != 1 {
		t.Fatalf("merged %d episodes, want 1", len(eps))
	}
	e := eps[0]
	if e.ID != ep || e.Mutations != 1 || len(e.events) != 3 {
		t.Fatalf("episode state wrong: id %d mutations %d events %d", e.ID, e.Mutations, len(e.events))
	}
	out := b.Render()
	if !strings.Contains(out, "receiver join (first) — r1") {
		t.Fatalf("render lost the cross-process root cause:\n%s", out)
	}
	if !strings.Contains(out, "TABLE-ADD") {
		t.Fatalf("render lost the remote mutation:\n%s", out)
	}
	// The join (daemon A, earlier wall time) must render before the
	// mutation it caused (daemon B) despite B's larger virtual stamp
	// being written to a separate file.
	if strings.Index(out, "JOIN-SEND") > strings.Index(out, "TABLE-ADD") {
		t.Fatalf("wall-clock merge ordered the cascade backwards:\n%s", out)
	}
}
