package obs

import (
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

var (
	testS  = addr.MustParse("10.0.0.1")
	testG  = addr.MustParse("224.0.0.1")
	testR  = addr.MustParse("10.1.0.3")
	testCh = addr.Channel{S: testS, G: testG}
)

func testJoin() *packet.Join {
	return &packet.Join{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeJoin,
			Channel: testCh, Src: testR, Dst: testS,
		},
		R: testR,
	}
}

// lineSink collects rendered text lines.
type lineSink struct{ lines []string }

func (s *lineSink) take(line string) { s.lines = append(s.lines, line) }

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Emit(Event{Kind: KindSend}) // must not panic
	if id := o.BeginSpan("x", testCh, testS, "s", 0); id != 0 {
		t.Fatalf("nil BeginSpan returned %d", id)
	}
	o.EndSpan(1, "x", testCh, testS, "s")
}

func TestEmitStampsAndFansOut(t *testing.T) {
	var now eventsim.Time = 42.5
	o := New(func() eventsim.Time { return now })
	var sink lineSink
	o.AddSink(NewTextSink(sink.take))
	o.EnableCounters()
	o.EnableRecorder(8)

	o.Emit(Event{Kind: KindSend, Node: testS, NodeName: "src", Msg: testJoin()})
	if len(sink.lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(sink.lines))
	}
	if want := "    42.5  src SEND hbh join("; !strings.HasPrefix(sink.lines[0], want) {
		t.Fatalf("line %q does not start with %q", sink.lines[0], want)
	}
	if got := o.Counters().Get("hbh_sends_total", "node", "src", "type", "join"); got != 1 {
		t.Fatalf("sends counter = %v, want 1", got)
	}
	if dump := o.Recorder().Dump(testS); !strings.Contains(dump, "src SEND") {
		t.Fatalf("recorder dump missing event: %q", dump)
	}
}

func TestFilterAppliesToSinksOnly(t *testing.T) {
	o := New(func() eventsim.Time { return 0 })
	var sink lineSink
	o.AddSink(NewTextSink(sink.take))
	o.EnableCounters()
	o.SetFilter(func(ev *Event) bool { return ev.NodeName == "keep" })

	o.Emit(Event{Kind: KindForward, Node: 1, NodeName: "keep"})
	o.Emit(Event{Kind: KindForward, Node: 2, NodeName: "drop"})
	if len(sink.lines) != 1 || !strings.Contains(sink.lines[0], "keep FORWARD") {
		t.Fatalf("filtered sink got %q", sink.lines)
	}
	// Counters must see everything regardless of the sink filter.
	if got := o.Counters().Total("hbh_forwards_total"); got != 2 {
		t.Fatalf("forwards total = %v, want 2", got)
	}
}

func TestTextSinkLegacyFormats(t *testing.T) {
	msg := testJoin()
	formatted := packet.Format(msg)
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindSend, NodeName: "a", Msg: msg}, "a SEND " + formatted},
		{Event{Kind: KindSendDirect, NodeName: "a", PeerName: "b", Msg: msg}, "a SEND-DIRECT->b " + formatted},
		{Event{Kind: KindConsume, NodeName: "a", Msg: msg}, "a CONSUME " + formatted},
		{Event{Kind: KindDeliver, NodeName: "a", Msg: msg}, "a DELIVER " + formatted},
		{Event{Kind: KindDrop, Cause: CauseNoRoute, NodeName: "a", Msg: msg}, "a DROP no route: " + formatted},
		{Event{Kind: KindDrop, Cause: CauseHopLimit, NodeName: "a", Msg: msg}, "a DROP hop limit: " + formatted},
		{Event{Kind: KindDrop, Cause: CauseLinkDown, NodeName: "a", PeerName: "b", Msg: msg}, "a DROP link down ->b: " + formatted},
		{Event{Kind: KindDrop, Cause: CauseNodeDown, NodeName: "a", Msg: msg}, "a DROP node down: " + formatted},
		{Event{Kind: KindDrop, Cause: CauseAdvLoss, NodeName: "a", Msg: msg}, "a DROP " + formatted},
		{Event{Kind: KindDrop, Cause: CauseNonUnicast, NodeName: "a", Msg: msg}, "a DROP non-unicast dst: " + formatted},
		{Event{Kind: KindDrop, Cause: CauseUnclaimedMulticast, NodeName: "a", Msg: msg}, "a DROP unclaimed multicast: " + formatted},
		{Event{Kind: KindNote, Detail: "FAULT link-down a-b"}, "FAULT link-down a-b"},
		{Event{Kind: KindJoinIntercept, NodeName: "b1", Channel: testCh, Msg: msg}, "b1 JOIN-INTERCEPT " + testCh.String() + " " + formatted},
	}
	for _, c := range cases {
		if got := Line(c.ev); got != c.want {
			t.Errorf("Line(%v) = %q, want %q", c.ev.Kind, got, c.want)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var b strings.Builder
	o := New(func() eventsim.Time { return 7 })
	o.AddSink(NewJSONLSink(&b))
	o.Emit(Event{
		Kind: KindJoinSend, Node: testR, NodeName: "r3",
		Channel: testCh, Msg: testJoin(), Span: 2, Parent: 1,
	})
	got := strings.TrimSpace(b.String())
	for _, want := range []string{
		`"t":7`, `"kind":"join-send"`, `"node":"r3"`,
		`"ch":"` + testCh.String() + `"`, `"span":2`, `"parent":1`, `"msg":"hbh join(`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("JSONL %q missing %q", got, want)
		}
	}
	if strings.Contains(got, `"cause"`) || strings.Contains(got, `"seq"`) {
		t.Errorf("JSONL %q carries zero-valued fields", got)
	}
	if !strings.HasPrefix(got, "{") || !strings.HasSuffix(got, "}") {
		t.Errorf("JSONL %q is not one object per line", got)
	}
}

func TestSpans(t *testing.T) {
	o := New(func() eventsim.Time { return 0 })
	var b strings.Builder
	o.AddSink(NewJSONLSink(&b))
	root := o.BeginSpan("receiver-lifecycle", testCh, testR, "r3", 0)
	child := o.BeginSpan("joining", testCh, testR, "r3", root)
	if root == 0 || child == 0 || root == child {
		t.Fatalf("span ids root=%d child=%d", root, child)
	}
	o.EndSpan(child, "joining", testCh, testR, "r3")
	o.EndSpan(0, "never-opened", testCh, testR, "r3") // no-op
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d span events, want 3: %q", len(lines), lines)
	}
	if !strings.Contains(lines[1], `"parent":1`) {
		t.Errorf("child span %q lacks parent", lines[1])
	}
}

func TestParseFilter(t *testing.T) {
	chEv := Event{Kind: KindJoinSend, Channel: testCh, NodeName: "r3"}
	otherCh := Event{Kind: KindJoinSend, Channel: addr.Channel{S: testR, G: testG}, NodeName: "r3"}
	nodeEv := Event{Kind: KindForward, NodeName: "b7"}

	tests := []struct {
		spec              string
		ch, otherCh, node bool
	}{
		{testCh.String(), true, false, false},
		{"10.0.0.1,224.0.0.1", true, false, false},
		{"r3", true, true, false},
		{"b7", false, false, true},
		{testCh.String() + ",b7", false, false, false}, // channel AND node
		{testCh.String() + ",r3", true, false, false},
	}
	for _, tc := range tests {
		f, err := ParseFilter(tc.spec)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", tc.spec, err)
		}
		if got := f(&chEv); got != tc.ch {
			t.Errorf("filter %q on channel event = %v, want %v", tc.spec, got, tc.ch)
		}
		if got := f(&otherCh); got != tc.otherCh {
			t.Errorf("filter %q on other-channel event = %v, want %v", tc.spec, got, tc.otherCh)
		}
		if got := f(&nodeEv); got != tc.node {
			t.Errorf("filter %q on node event = %v, want %v", tc.spec, got, tc.node)
		}
	}
	if f, err := ParseFilter(""); err != nil || f != nil {
		t.Errorf("empty filter: f==nil is %v, err=%v; want nil,nil", f == nil, err)
	}
}

func TestCountersTableGauge(t *testing.T) {
	c := NewCounters()
	ev := Event{Kind: KindTableAdd, NodeName: "b1", Channel: testCh}
	c.Apply(ev)
	c.Apply(ev)
	ev.Kind = KindTableRemove
	c.Apply(ev)
	if got := c.Get("hbh_table_entries", "node", "b1", "channel", testCh.String()); got != 1 {
		t.Fatalf("table gauge = %v, want 1", got)
	}
}

func TestCountersExportDeterministic(t *testing.T) {
	build := func() string {
		c := NewCounters()
		c.Apply(Event{Kind: KindDrop, Cause: CauseAdvLoss, NodeName: "b"})
		c.Apply(Event{Kind: KindDrop, Cause: CauseNoRoute, NodeName: "a"})
		c.Apply(Event{Kind: KindSend, NodeName: "a"})
		s := c.NewSeries("hbh_mft_routers", "proto", "hbh")
		s.Sample(1.5, 3)
		s.Sample(2.5, 4)
		var b strings.Builder
		if err := c.Export(&b); err != nil {
			t.Fatalf("Export: %v", err)
		}
		return b.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("export not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	for _, want := range []string{
		"# TYPE hbh_drops_total counter",
		`hbh_drops_total{node="a",cause="no-route"} 1`,
		`hbh_mft_routers{proto="hbh"} 3 1500`,
		`hbh_mft_routers{proto="hbh"} 4 2500`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("export missing %q:\n%s", want, first)
		}
	}
}

func TestSeriesCap(t *testing.T) {
	c := NewCounters()
	s := c.NewSeries("hbh_x")
	for i := 0; i < maxSeriesSamples+10; i++ {
		s.Sample(eventsim.Time(i), 1)
	}
	var b strings.Builder
	if err := c.Export(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\nhbh_x "); got != maxSeriesSamples {
		t.Fatalf("series exports %d samples, want cap %d", got, maxSeriesSamples)
	}
	if !strings.Contains(b.String(), "truncated: 10 samples dropped") {
		t.Errorf("export does not report truncation")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: eventsim.Time(i), Kind: KindForward, Node: testS, NodeName: "s"})
	}
	dump := r.Dump(testS)
	if !strings.Contains(dump, "last 4 of 10 events") {
		t.Fatalf("dump header wrong: %q", dump)
	}
	// Oldest retained event is t=6; t=5 must have scrolled out.
	if !strings.Contains(dump, "     6.0  ") || strings.Contains(dump, "     5.0  ") {
		t.Fatalf("ring contents wrong: %q", dump)
	}
	// Oldest-first ordering.
	if strings.Index(dump, "     6.0") > strings.Index(dump, "     9.0") {
		t.Fatalf("dump not oldest-first: %q", dump)
	}
	if got := r.Dump(testR); !strings.Contains(got, "no events recorded") {
		t.Fatalf("empty dump = %q", got)
	}
}

func TestRecorderSnapshotsMutableMessages(t *testing.T) {
	r := NewRecorder(4)
	msg := testJoin()
	r.Record(Event{Kind: KindSend, Node: testS, NodeName: "s", Msg: msg})
	msg.R = testS // simulate in-place rewrite after forwarding
	if !strings.Contains(r.Dump(testS), "R=10.1.0.3") {
		t.Fatal("recorder did not snapshot the message at record time")
	}
}

func TestDumpOnFaultDrop(t *testing.T) {
	o := New(func() eventsim.Time { return 9 })
	var sink lineSink
	o.AddSink(NewTextSink(sink.take))
	o.EnableRecorder(8)
	o.SetDumpOnFaultDrop(true)

	o.Emit(Event{Kind: KindForward, Node: testS, NodeName: "s"})
	o.Emit(Event{Kind: KindDrop, Cause: CauseLinkDown, Node: testS, NodeName: "s", PeerName: "b", Msg: testJoin()})
	joined := strings.Join(sink.lines, "\n")
	if !strings.Contains(joined, "FLIGHT-RECORDER dump (drop cause: link-down)") {
		t.Fatalf("no flight-recorder dump in trace:\n%s", joined)
	}
	if !strings.Contains(joined, "s FORWARD") {
		t.Fatalf("dump lacks prior context:\n%s", joined)
	}

	// Non-fault drops must not dump.
	sink.lines = nil
	o.Emit(Event{Kind: KindDrop, Cause: CauseNoRoute, Node: testS, NodeName: "s", Msg: testJoin()})
	if strings.Contains(strings.Join(sink.lines, "\n"), "FLIGHT-RECORDER") {
		t.Fatal("no-route drop triggered a dump")
	}
}

func TestRemoveSink(t *testing.T) {
	o := New(func() eventsim.Time { return 0 })
	var a, b lineSink
	sa, sb := NewTextSink(a.take), NewTextSink(b.take)
	o.AddSink(sa)
	o.AddSink(sb)
	o.RemoveSink(sa)
	o.Emit(Event{Kind: KindForward, NodeName: "x"})
	if len(a.lines) != 0 || len(b.lines) != 1 {
		t.Fatalf("after remove: a=%d b=%d lines", len(a.lines), len(b.lines))
	}
	o.RemoveSink(sb)
	o.Emit(Event{Kind: KindForward, NodeName: "x"})
	if len(b.lines) != 1 {
		t.Fatalf("removed sink still fed: b=%d lines", len(b.lines))
	}
}
