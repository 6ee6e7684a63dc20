package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

// The telemetry budget: an observed event allocates nothing in steady
// state, whatever its kind and whatever packet it carries, and every
// byte the recorder and the registry render is what the code that
// formatted per event rendered.

func testTree(flags uint8) *packet.Tree {
	return &packet.Tree{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeTree, Flags: flags,
			Channel: testCh, Src: testS, Dst: testR,
		},
		R: testR,
	}
}

func testFusion(rs ...addr.Addr) *packet.Fusion {
	return &packet.Fusion{
		Header: packet.Header{
			Proto: packet.ProtoHBH, Type: packet.TypeFusion,
			Channel: testCh, Src: testR, Dst: testS,
		},
		Bp: testR, Rs: rs,
	}
}

// allKinds lists every defined Kind.
func allKinds() []Kind {
	var ks []Kind
	for k := Kind(0); !strings.HasPrefix(k.String(), "kind("); k++ {
		ks = append(ks, k)
	}
	return ks
}

// everyKindEvents is every Kind carrying, in turn, no packet and a
// join, a tree, a marked tree, a fusion and a data packet.
func everyKindEvents() []Event {
	msgs := []packet.Message{
		nil, testJoin(), testTree(0), testTree(packet.FlagMarked),
		testFusion(testR, testS, testG), testData(7),
	}
	causes := []Cause{CauseNone, CauseNoRoute, CauseLinkDown, CauseAdvLoss}
	var evs []Event
	for _, k := range allKinds() {
		for i, m := range msgs {
			ev := Event{
				Kind: k, Node: testR, NodeName: "r3", Peer: testS, PeerName: "s",
				Channel: testCh, Msg: m, Detail: "first",
			}
			if k == KindDrop {
				ev.Cause = causes[i%len(causes)]
			}
			if d, ok := m.(*packet.Data); ok {
				ev.Seq = d.Seq
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

func TestRecorderRecordZeroAlloc(t *testing.T) {
	evs := everyKindEvents()
	const depth = 16
	r := NewRecorder(depth)
	// Warm-up: every slot has held every event, so each owns an Rs
	// slice as large as any fusion to come.
	for _, ev := range evs {
		for i := 0; i < depth; i++ {
			r.Record(ev)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, ev := range evs {
			r.Record(ev)
		}
	}); n != 0 {
		t.Fatalf("Record allocates in steady state: %v allocs per %d events", n, len(evs))
	}
}

func TestCountersApplyZeroAlloc(t *testing.T) {
	evs := everyKindEvents()
	c := NewCounters()
	for _, ev := range evs {
		c.Apply(ev)
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, ev := range evs {
			c.Apply(ev)
		}
	}); n != 0 {
		t.Fatalf("Apply allocates once its series exist: %v allocs per %d events", n, len(evs))
	}
}

// TestCountersExportZeroAlloc: a second Export of a registry that only
// counted since the first — its samples, histograms and series all
// registered already — renders into the buffer the registry kept and
// allocates nothing, and renders what a first Export of the same state
// renders.
func TestCountersExportZeroAlloc(t *testing.T) {
	c := NewCounters()
	for _, ev := range everyKindEvents() {
		c.Apply(ev)
	}
	h := c.Hist("hbh_hop_delay", "node", "r3")
	s := c.NewSeries("hbh_state_mft_routers")
	for i := 0; i < 40; i++ {
		h.Observe(float64(i) / 7)
		s.Sample(eventsim.Time(i), float64(i%5))
	}
	var w bytes.Buffer
	if err := c.Export(&w); err != nil {
		t.Fatal(err)
	}
	first := w.String()
	w.Reset()
	if err := c.Export(&w); err != nil {
		t.Fatal(err)
	}
	if w.String() != first {
		t.Fatal("a second Export of an unchanged registry renders differently")
	}
	ev := Event{Kind: KindForward, NodeName: "r3", Msg: testJoin()}
	if n := testing.AllocsPerRun(20, func() {
		c.Apply(ev) // counts move, no series appears
		h.Observe(0.5)
		w.Reset() // the writer is reused: only Export is priced
		if err := c.Export(&w); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Export of a registry with no new series allocates %v times", n)
	}
	fresh := NewCounters()
	fresh.Merge(c)
	var again strings.Builder
	if err := fresh.Export(&again); err != nil {
		t.Fatal(err)
	}
	if w.String() != again.String() {
		t.Error("the kept render differs from a fresh registry's render of the same state")
	}
}

// TestObserverEmitZeroAlloc holds the whole pipeline hbhd attaches —
// counters, latency (fed directly, as under the live runtime),
// convergence, recorder(256), no sink — to zero allocations per event.
func TestObserverEmitZeroAlloc(t *testing.T) {
	evs := everyKindEvents()
	var now eventsim.Time
	o := New(func() eventsim.Time { now++; return now })
	o.EnableCounters()
	o.EnableLatency().SetDirect(true)
	o.EnableConvergence()
	const depth = 256
	o.EnableRecorder(depth)
	for _, ev := range evs {
		for i := 0; i < depth; i++ {
			o.Emit(ev)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, ev := range evs {
			o.Emit(ev)
		}
	}); n != 0 {
		t.Fatalf("Emit allocates in steady state: %v allocs per %d events", n, len(evs))
	}
}

// lineRecorder is the reference the recorder is checked against: the
// flight recorder as it was when it rendered stamp+Line at record time
// and kept the strings.
type lineRecorder struct {
	depth int
	rings map[addr.Addr]*lineRing
}

type lineRing struct {
	name  string
	lines []string
	next  int
	total int
}

func (r *lineRecorder) Record(ev Event) {
	rg := r.rings[ev.Node]
	if rg == nil {
		rg = &lineRing{name: ev.NodeName}
		r.rings[ev.Node] = rg
	}
	if rg.name == "" {
		rg.name = ev.NodeName
	}
	line := stamp(ev) + Line(ev)
	if len(rg.lines) < r.depth {
		rg.lines = append(rg.lines, line)
	} else {
		rg.lines[rg.next] = line
		rg.next = (rg.next + 1) % r.depth
	}
	rg.total++
}

func (r *lineRecorder) Dump(node addr.Addr) string {
	rg := r.rings[node]
	if rg == nil || rg.total == 0 {
		return fmt.Sprintf("flight recorder: no events recorded for %v", node)
	}
	label := node.String()
	if rg.name != "" {
		label = fmt.Sprintf("%s (%v)", rg.name, node)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %s — last %d of %d events\n", label, len(rg.lines), rg.total)
	for i := range rg.lines {
		b.WriteString(rg.lines[(rg.next+i)%len(rg.lines)])
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRecorderDumpMatchesRenderAtRecord feeds one seeded stream to the
// recorder and to the reference, rewriting every packet in place after
// it is recorded — the simulator does exactly that to messages it
// forwards zero-copy — and requires byte-identical dumps: the rings
// wrap many times, and a fusion's Rs is grown, shrunk and overwritten
// inside the backing array the recorded event pointed at.
func TestRecorderDumpMatchesRenderAtRecord(t *testing.T) {
	const seed, depth, n = 20260104, 7, 4000
	rng := rand.New(rand.NewSource(seed))
	got := NewRecorder(depth)
	want := &lineRecorder{depth: depth, rings: make(map[addr.Addr]*lineRing)}

	nodes := []struct {
		a    addr.Addr
		name string
	}{{testS, "s"}, {testR, "r3"}, {testG, ""}, {0, ""}, {addr.MustParse("10.0.0.9"), "b"}}
	randAddr := func() addr.Addr { return addr.Addr(0x0a000000 | rng.Intn(1<<12)) }
	join, tree, data := testJoin(), testTree(0), testData(1)
	fusion := testFusion(testR, testS)
	fusion.Rs = append(make([]addr.Addr, 0, 8), fusion.Rs...)
	query := &packet.Query{Header: join.Header}
	report := &packet.Report{Header: join.Header}
	msgs := []packet.Message{nil, join, tree, fusion, data, query, report}
	kinds := allKinds()
	causes := []Cause{CauseNone, CauseNoRoute, CauseHopLimit, CauseLinkDown,
		CauseNodeDown, CauseNonUnicast, CauseUnclaimedMulticast, CauseAdvLoss}

	for i := 0; i < n; i++ {
		nd := nodes[rng.Intn(len(nodes))]
		ev := Event{
			At: eventsim.Time(i) / 4, Kind: kinds[rng.Intn(len(kinds))],
			Node: nd.a, NodeName: nd.name, Msg: msgs[rng.Intn(len(msgs))],
			Cause: causes[rng.Intn(len(causes))],
		}
		if rng.Intn(2) == 0 {
			ev.Channel = addr.Channel{S: randAddr(), G: testG}
		}
		if rng.Intn(2) == 0 {
			ev.Peer = randAddr()
			if rng.Intn(2) == 0 {
				ev.PeerName = fmt.Sprintf("p%d", rng.Intn(9))
			}
		}
		if rng.Intn(3) == 0 {
			ev.Detail = fmt.Sprintf("detail %d", i)
		}
		got.Record(ev)
		want.Record(ev)

		// Rewrite history's sources.
		join.R, join.Flags = randAddr(), uint8(rng.Intn(2))*packet.FlagFirst
		tree.Src, tree.R, tree.Flags = randAddr(), randAddr(), uint8(rng.Intn(2))*packet.FlagMarked
		data.Seq, data.Payload = rng.Uint32(), make([]byte, rng.Intn(100))
		data.Dst, data.Proto = randAddr(), packet.Protocol(rng.Intn(3))
		fusion.Bp = randAddr()
		fusion.Rs = fusion.Rs[:rng.Intn(cap(fusion.Rs)+1)]
		for j := range fusion.Rs {
			fusion.Rs[j] = randAddr()
		}
		query.General, query.Channel.S = rng.Intn(2) == 0, randAddr()
		report.Leave, report.Channel.S = rng.Intn(2) == 0, randAddr()

		if i%500 == 499 || i == n-1 {
			for _, nd := range nodes {
				if g, w := got.Dump(nd.a), want.Dump(nd.a); g != w {
					t.Fatalf("seed %d, after %d events, node %v:\n--- recorder ---\n%s--- reference ---\n%s",
						seed, i+1, nd.a, g, w)
				}
			}
		}
	}
	if g, w := got.Dump(testS+1), want.Dump(testS+1); g != w {
		t.Fatalf("empty-node dump: %q vs %q", g, w)
	}
}

// addEquivalent feeds c, through Add, what Apply derives from ev: the
// per-event label strings Apply used to build, spelled out.
func addEquivalent(c *Counters, ev Event) {
	ch := ""
	if ev.Channel != (addr.Channel{}) {
		ch = ev.Channel.String()
	}
	byNodeCh := func(name string, v float64) { c.Add(name, v, "node", ev.NodeName, "channel", ch) }
	switch ev.Kind {
	case KindSend, KindSendDirect:
		typ := "control"
		if ev.Msg != nil {
			typ = ev.Msg.Hdr().Type.String()
		}
		c.Add("hbh_sends_total", 1, "node", ev.NodeName, "type", typ)
	case KindForward:
		c.Add("hbh_forwards_total", 1, "node", ev.NodeName)
	case KindConsume, KindDeliver:
		c.Add("hbh_deliveries_total", 1, "node", ev.NodeName)
	case KindDrop:
		c.Add("hbh_drops_total", 1, "node", ev.NodeName, "cause", ev.Cause.String())
	case KindJoinSend:
		byNodeCh("hbh_joins_sent_total", 1)
	case KindJoinIntercept:
		byNodeCh("hbh_joins_intercepted_total", 1)
	case KindJoinAdmit:
		c.Add("hbh_joins_admitted_total", 1, "channel", ch)
	case KindTreeSend:
		byNodeCh("hbh_trees_sent_total", 1)
	case KindTreeAdopt:
		byNodeCh("hbh_trees_adopted_total", 1)
	case KindFusionSend:
		byNodeCh("hbh_fusions_sent_total", 1)
	case KindFusionAccept:
		byNodeCh("hbh_fusions_accepted_total", 1)
	case KindMarkLift:
		byNodeCh("hbh_marks_lifted_total", 1)
	case KindBranch:
		byNodeCh("hbh_branch_events_total", 1)
	case KindCollapse:
		byNodeCh("hbh_collapse_events_total", 1)
	case KindTableAdd:
		byNodeCh("hbh_table_entries", 1)
	case KindTableRemove:
		byNodeCh("hbh_table_entries", -1)
	case KindReplicate:
		byNodeCh("hbh_data_copies_total", 1)
	case KindFault:
		c.Add("hbh_faults_total", 1)
	}
}

// TestCountersApplyMatchesAdd: a registry fed by Apply exports byte for
// byte what one fed by the equivalent Add calls exports, alone and
// after a Merge of shards in either order.
func TestCountersApplyMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := allKinds()
	msgs := []packet.Message{nil, testJoin(), testTree(0), testFusion(testR), testData(3), &packet.Data{}}
	causes := []Cause{CauseNone, CauseNoRoute, CauseLinkDown, CauseAdvLoss}
	var events []Event
	for i := 0; i < 6000; i++ {
		ev := Event{
			Kind: kinds[rng.Intn(len(kinds))], NodeName: fmt.Sprintf("r%d", rng.Intn(9)),
			Msg: msgs[rng.Intn(len(msgs))], Cause: causes[rng.Intn(len(causes))],
		}
		if rng.Intn(4) != 0 {
			ev.Channel = addr.Channel{S: testS, G: testG + addr.Addr(rng.Intn(3))}
		}
		events = append(events, ev)
	}
	export := func(c *Counters) string {
		var b strings.Builder
		if err := c.Export(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	feed := func(shards int, apply bool) []*Counters {
		cs := make([]*Counters, shards)
		for i := range cs {
			cs[i] = NewCounters()
		}
		for i, ev := range events {
			if apply {
				cs[i%shards].Apply(ev)
			} else {
				addEquivalent(cs[i%shards], ev)
			}
		}
		return cs
	}
	want := export(feed(1, false)[0])
	if got := export(feed(1, true)[0]); got != want {
		t.Fatalf("Apply-fed export differs from Add-fed export:\n--- apply ---\n%s--- add ---\n%s", got, want)
	}
	for _, reverse := range []bool{false, true} {
		for _, apply := range []bool{false, true} {
			shards := feed(3, apply)
			if reverse {
				shards[0], shards[2] = shards[2], shards[0]
			}
			merged := NewCounters()
			for _, s := range shards {
				merged.Merge(s)
			}
			if got := export(merged); got != want {
				t.Fatalf("merged export (apply=%v reverse=%v) differs from the single Add-fed registry", apply, reverse)
			}
			// A merged-into registry keeps counting through Apply.
			merged.Apply(events[0])
			merged.Apply(events[0])
		}
	}
}

// TestApplyMetricsAreDocumented: every metric Apply can produce has a
// metricHelp row, so /metrics types it and sorts it with the rest.
func TestApplyMetricsAreDocumented(t *testing.T) {
	c := NewCounters()
	for _, ev := range everyKindEvents() {
		c.Apply(ev)
	}
	var b strings.Builder
	if err := c.Export(&b); err != nil {
		t.Fatal(err)
	}
	helped := make(map[string]bool)
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "#" {
			continue
		}
		switch f[1] {
		case "HELP":
			helped[f[2]] = true
		case "TYPE":
			if f[3] == "untyped" || !helped[f[2]] {
				t.Errorf("metric %s is exported without a metricHelp row: %q", f[2], line)
			}
		}
	}
	if !helped["hbh_marks_lifted_total"] {
		t.Error("hbh_marks_lifted_total missing from the export")
	}
}
