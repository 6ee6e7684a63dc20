package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

// metricHelp documents the metrics the registry derives from the event
// stream; the export emits it as Prometheus HELP/TYPE preamble.
var metricHelp = []struct{ name, kind, help string }{
	{"hbh_sends_total", "counter", "packets originated, by node and packet type"},
	{"hbh_forwards_total", "counter", "link traversals forwarded through a node"},
	{"hbh_deliveries_total", "counter", "packets terminating at a node (consumed or locally delivered)"},
	{"hbh_drops_total", "counter", "packets dropped, by node and cause"},
	{"hbh_joins_sent_total", "counter", "join messages emitted, by node and channel"},
	{"hbh_joins_intercepted_total", "counter", "joins intercepted by a branching router, by node and channel"},
	{"hbh_joins_admitted_total", "counter", "joins installed or refreshed at the channel root, by channel"},
	{"hbh_trees_sent_total", "counter", "tree refreshes emitted, by node and channel"},
	{"hbh_trees_adopted_total", "counter", "tree targets adopted into an MFT, by node and channel"},
	{"hbh_fusions_sent_total", "counter", "fusion announcements emitted, by node and channel"},
	{"hbh_fusions_accepted_total", "counter", "fusion splices accepted upstream, by node and channel"},
	{"hbh_marks_lifted_total", "counter", "fusion marks retracted (the relay stopped serving the entry), by node and channel"},
	{"hbh_branch_events_total", "counter", "non-branching to branching transitions, by node and channel"},
	{"hbh_collapse_events_total", "counter", "branching state collapses, by node and channel"},
	{"hbh_data_copies_total", "counter", "data copies emitted by replication, by node and channel"},
	{"hbh_table_entries", "gauge", "live forwarding-table entries, by node and channel"},
	{"hbh_faults_total", "counter", "fault-injection events applied"},
	{"hbh_state_mft_routers", "gauge", "routers holding a data-plane table, sampled per refresh interval (virtual-time series)"},
	{"hbh_state_mft_entries", "gauge", "total data-plane rows across routers and the source, sampled per refresh interval (virtual-time series)"},
	{"hbh_state_mct_routers", "gauge", "routers holding only control-plane state, sampled per refresh interval (virtual-time series)"},
	{"hbh_delivery_delay", "histogram", "end-to-end data delivery delay (seconds on the live runtime, virtual units in simulation)"},
	{"hbh_hop_delay", "histogram", "per-hop forwarding delay (seconds on the live runtime, virtual units in simulation)"},
	{"hbh_join_first_delay", "histogram", "delay from a receiver's first join to its first delivered data packet (seconds live, virtual units simulated)"},
	{"hbh_converge_time", "histogram", "per-channel tree convergence time: first to last structural mutation of a convergence burst (seconds live, virtual units simulated)"},
}

// counterKey identifies one labelled sample of one metric.
type counterKey struct {
	name   string
	labels string // pre-rendered, sorted label block: {a="x",b="y"}
}

// Counters is the metric registry fed by Observer.Emit. It derives
// per-node / per-channel counters from the event stream, keeps
// registered latency histograms (Hist), and holds opt-in virtual-time
// series (Series), such as a simulated run's forwarding-state
// footprint sampled once per refresh interval. Export renders
// everything in the Prometheus text exposition format; series samples
// carry their virtual time as the (normally wall-clock) timestamp
// column.
//
// vals is the one store of samples, a cell per series. Apply reaches
// its cell through applied, keyed by the raw event fields the series'
// labels are rendered from, so the label block of a series is rendered
// once, the first time the series is seen, and an event after that
// costs one map lookup and an add.
//
// A Counters instance is single-goroutine: concurrent workers each own
// one and fold them together with Merge at their barrier. Because every
// Apply increment is ±1 (exact in float64) and Export sorts globally,
// the merged export is byte-identical to a single registry that saw
// the same events.
type Counters struct {
	vals    map[counterKey]*float64
	applied map[applyKey]*float64
	hists   map[counterKey]*Histogram
	series  []*Series

	// layout is Export's sorted plan of everything registered, nil once
	// a new sample, histogram or series makes it stale; out is the
	// buffer Export renders into, kept for the next call.
	layout []exportMetric
	out    []byte
}

// NewCounters builds an empty registry.
func NewCounters() *Counters {
	return &Counters{
		vals:    make(map[counterKey]*float64),
		applied: make(map[applyKey]*float64),
		hists:   make(map[counterKey]*Histogram),
	}
}

// cell returns the sample k names, creating it at zero.
func (c *Counters) cell(k counterKey) *float64 {
	v := c.vals[k]
	if v == nil {
		v = new(float64)
		c.vals[k] = v
		c.layout = nil
	}
	return v
}

// Hist returns the registry-resident histogram for name and labels,
// creating it on first use. Registered histograms are folded by Merge
// and rendered by Export alongside the scalar samples.
func (c *Counters) Hist(name string, kv ...string) *Histogram {
	k := counterKey{name, renderLabels(kv)}
	h := c.hists[k]
	if h == nil {
		h = &Histogram{name: name, labels: k.labels}
		c.hists[k] = h
		c.layout = nil
	}
	return h
}

// Add increments metric name by v under the given label pairs
// (alternating key, value; keys must arrive sorted or at least in a
// fixed order so identical samples collide).
func (c *Counters) Add(name string, v float64, kv ...string) {
	*c.cell(counterKey{name, renderLabels(kv)}) += v
}

// Get reads back one sample (tests and threshold checks).
func (c *Counters) Get(name string, kv ...string) float64 {
	if v := c.vals[counterKey{name, renderLabels(kv)}]; v != nil {
		return *v
	}
	return 0
}

// Total sums every sample of metric name across all label sets.
func (c *Counters) Total(name string) float64 {
	var sum float64
	for k, v := range c.vals {
		if k.name == name {
			sum += *v
		}
	}
	return sum
}

func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(kv[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// applyRule says what Apply does with one kind of event: the metric
// that moves, by how much, and which raw event fields label the series.
type applyRule struct {
	name  string
	delta float64
	by    labelSet
}

// labelSet names the labels of a series, in the order they render.
type labelSet uint8

const (
	byNode    labelSet = 1 << iota // node=ev.NodeName
	byType                         // type= the packet's type, "control" without one
	byCause                        // cause=ev.Cause
	byChannel                      // channel=ev.Channel, "" when zero
)

// applyRules is indexed by Kind; kinds without a metric have no name.
var applyRules = [...]applyRule{
	KindSend:          {"hbh_sends_total", 1, byNode | byType},
	KindSendDirect:    {"hbh_sends_total", 1, byNode | byType},
	KindForward:       {"hbh_forwards_total", 1, byNode},
	KindConsume:       {"hbh_deliveries_total", 1, byNode},
	KindDeliver:       {"hbh_deliveries_total", 1, byNode},
	KindDrop:          {"hbh_drops_total", 1, byNode | byCause},
	KindJoinSend:      {"hbh_joins_sent_total", 1, byNode | byChannel},
	KindJoinIntercept: {"hbh_joins_intercepted_total", 1, byNode | byChannel},
	KindJoinAdmit:     {"hbh_joins_admitted_total", 1, byChannel},
	KindTreeSend:      {"hbh_trees_sent_total", 1, byNode | byChannel},
	KindTreeAdopt:     {"hbh_trees_adopted_total", 1, byNode | byChannel},
	KindFusionSend:    {"hbh_fusions_sent_total", 1, byNode | byChannel},
	KindFusionAccept:  {"hbh_fusions_accepted_total", 1, byNode | byChannel},
	KindMarkLift:      {"hbh_marks_lifted_total", 1, byNode | byChannel},
	KindBranch:        {"hbh_branch_events_total", 1, byNode | byChannel},
	KindCollapse:      {"hbh_collapse_events_total", 1, byNode | byChannel},
	KindTableAdd:      {"hbh_table_entries", 1, byNode | byChannel},
	KindTableRemove:   {"hbh_table_entries", -1, byNode | byChannel},
	KindReplicate:     {"hbh_data_copies_total", 1, byNode | byChannel},
	KindFault:         {"hbh_faults_total", 1, 0},
}

// applyKey is the raw fields one Apply series is labelled from; fields
// the kind's rule does not label by stay zero.
type applyKey struct {
	kind Kind
	node string
	ch   addr.Channel
	// aux is the packet type (noPacket without one) under byType, the
	// cause under byCause.
	aux int16
}

const noPacket = -1

// labels renders k's label block the way Add renders its key/value list.
func (r *applyRule) labels(k applyKey) string {
	kv := make([]string, 0, 4)
	if r.by&byNode != 0 {
		kv = append(kv, "node", k.node)
	}
	if r.by&byType != 0 {
		typ := "control"
		if k.aux != noPacket {
			typ = packet.Type(k.aux).String()
		}
		kv = append(kv, "type", typ)
	}
	if r.by&byCause != 0 {
		kv = append(kv, "cause", Cause(k.aux).String())
	}
	if r.by&byChannel != 0 {
		ch := ""
		if k.ch != (addr.Channel{}) {
			ch = k.ch.String()
		}
		kv = append(kv, "channel", ch)
	}
	return renderLabels(kv)
}

// Apply derives metric increments from one event.
func (c *Counters) Apply(ev Event) { c.apply(&ev) }

func (c *Counters) apply(ev *Event) {
	if int(ev.Kind) >= len(applyRules) {
		return
	}
	r := &applyRules[ev.Kind]
	if r.name == "" {
		return
	}
	k := applyKey{kind: ev.Kind}
	if r.by&byNode != 0 {
		k.node = ev.NodeName
	}
	if r.by&byChannel != 0 {
		k.ch = ev.Channel
	}
	if r.by&byType != 0 {
		k.aux = noPacket
		if ev.Msg != nil && ev.Msg.Hdr() != nil {
			k.aux = int16(ev.Msg.Hdr().Type)
		}
	} else if r.by&byCause != 0 {
		k.aux = int16(ev.Cause)
	}
	v := c.applied[k]
	if v == nil {
		v = c.cell(counterKey{r.name, r.labels(k)})
		c.applied[k] = v
	}
	*v += r.delta
}

// Merge folds another registry into c: samples add (in a stable key
// order, though float addition of exact unit-increment sums makes the
// order immaterial) and other's series are appended in registration
// order. The sharded runtime calls this at the worker barrier, worker
// by worker in index order, so a K-worker run exports byte-identically
// to a 1-worker run over the same event partition. other must not be
// used concurrently with the merge; c owns other's series afterwards.
func (c *Counters) Merge(other *Counters) {
	keys := make([]counterKey, 0, len(other.vals))
	for k := range other.vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].labels < keys[j].labels
	})
	for _, k := range keys {
		*c.cell(k) += *other.vals[k]
	}
	hkeys := make([]counterKey, 0, len(other.hists))
	for k := range other.hists {
		hkeys = append(hkeys, k)
	}
	sort.Slice(hkeys, func(i, j int) bool {
		if hkeys[i].name != hkeys[j].name {
			return hkeys[i].name < hkeys[j].name
		}
		return hkeys[i].labels < hkeys[j].labels
	})
	for _, k := range hkeys {
		h := c.hists[k]
		if h == nil {
			h = &Histogram{name: k.name, labels: k.labels}
			c.hists[k] = h
		}
		h.Merge(other.hists[k])
	}
	c.series = append(c.series, other.series...)
	c.layout = nil
}

// maxSeriesSamples bounds every time series so samplers can never grow
// without limit on a long run; past the cap new samples are dropped
// (the head of the curve is the part convergence analysis needs).
const maxSeriesSamples = 4096

// Series is a virtual-time sampled curve — table sizes over time,
// deliveries over time — exported with its virtual timestamps in the
// Prometheus timestamp column (milliseconds, as the format requires).
type Series struct {
	name    string
	labels  string
	samples []sample
	dropped int
}

type sample struct {
	at eventsim.Time
	v  float64
}

// NewSeries registers a time series under name and labels.
func (c *Counters) NewSeries(name string, kv ...string) *Series {
	s := &Series{name: name, labels: renderLabels(kv)}
	c.series = append(c.series, s)
	c.layout = nil
	return s
}

// Sample appends one observation at virtual time at.
func (s *Series) Sample(at eventsim.Time, v float64) {
	if len(s.samples) >= maxSeriesSamples {
		s.dropped++
		return
	}
	s.samples = append(s.samples, sample{at, v})
}

// Export writes the registry in the Prometheus text exposition format,
// deterministically ordered (metrics by name, samples by label block),
// in one Write. The text is rendered into a buffer the registry keeps,
// from a sorted plan it keeps until a new sample, histogram or series
// appears, so exporting a registry that only counted since the last
// export allocates nothing.
func (c *Counters) Export(w io.Writer) error {
	if c.layout == nil {
		c.layout = c.plan()
	}
	b := c.out[:0]
	for i := range c.layout {
		m := &c.layout[i]
		b = append(b, m.head...)
		for _, h := range m.hists {
			b = h.appendText(b)
		}
		for _, smp := range m.samples {
			b = append(b, smp.prefix...)
			b = appendValue(b, *smp.v)
			b = append(b, '\n')
		}
		for _, s := range m.series {
			for _, smp := range s.samples {
				// Timestamp column carries the *virtual* time in ms.
				b = append(b, s.name...)
				b = append(b, s.labels...)
				b = append(b, ' ')
				b = appendValue(b, smp.v)
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(float64(smp.at)*1000), 10)
				b = append(b, '\n')
			}
			if s.dropped > 0 {
				b = fmt.Appendf(b, "# %s%s truncated: %d samples dropped past cap %d\n", s.name, s.labels, s.dropped, maxSeriesSamples)
			}
		}
	}
	c.out = b
	_, err := w.Write(b)
	return err
}

// exportMetric is one metric of Export's plan: its HELP/TYPE preamble,
// then its histograms, scalar samples and series, each sorted by label
// block.
type exportMetric struct {
	head    string
	hists   []*Histogram
	samples []exportSample
	series  []*Series
}

// exportSample is one scalar sample: "name{labels} " and its cell.
type exportSample struct {
	prefix string
	v      *float64
}

// plan sorts everything registered into Export's order: the metrics of
// metricHelp in its order, then any others by name.
func (c *Counters) plan() []exportMetric {
	byName := make(map[string][]counterKey)
	for k := range c.vals {
		byName[k.name] = append(byName[k.name], k)
	}
	seriesByName := make(map[string][]*Series)
	for _, s := range c.series {
		seriesByName[s.name] = append(seriesByName[s.name], s)
	}
	histsByName := make(map[string][]*Histogram)
	for _, h := range c.hists {
		histsByName[h.name] = append(histsByName[h.name], h)
	}

	var names []string
	seen := make(map[string]bool)
	for _, m := range metricHelp {
		if len(byName[m.name]) > 0 || len(seriesByName[m.name]) > 0 || len(histsByName[m.name]) > 0 {
			names = append(names, m.name)
			seen[m.name] = true
		}
	}
	// Metrics added via Add/NewSeries/Hist without a help entry still
	// export.
	var extra []string
	for n := range byName {
		if !seen[n] {
			extra = append(extra, n)
			seen[n] = true
		}
	}
	for n := range seriesByName {
		if !seen[n] {
			extra = append(extra, n)
			seen[n] = true
		}
	}
	for n := range histsByName {
		if !seen[n] {
			extra = append(extra, n)
			seen[n] = true
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)

	help := make(map[string]struct{ kind, help string })
	for _, m := range metricHelp {
		help[m.name] = struct{ kind, help string }{m.kind, m.help}
	}

	plan := make([]exportMetric, 0, len(names))
	for _, name := range names {
		var m exportMetric
		if h, ok := help[name]; ok {
			m.head = fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", name, h.help, name, h.kind)
		} else if len(histsByName[name]) > 0 {
			m.head = fmt.Sprintf("# TYPE %s histogram\n", name)
		} else {
			m.head = fmt.Sprintf("# TYPE %s untyped\n", name)
		}
		m.hists = histsByName[name]
		sort.Slice(m.hists, func(i, j int) bool { return m.hists[i].labels < m.hists[j].labels })
		keys := byName[name]
		sort.Slice(keys, func(i, j int) bool { return keys[i].labels < keys[j].labels })
		for _, k := range keys {
			m.samples = append(m.samples, exportSample{k.name + k.labels + " ", c.vals[k]})
		}
		m.series = seriesByName[name]
		sort.Slice(m.series, func(i, j int) bool { return m.series[i].labels < m.series[j].labels })
		plan = append(plan, m)
	}
	return plan
}

// appendValue appends a sample value in its shortest exact form.
func appendValue(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
