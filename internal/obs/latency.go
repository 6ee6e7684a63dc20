// The latency tracker: derives the delay histograms from the event
// stream. Like the counter registry and the convergence tracker it
// sees every event unfiltered, consumes no randomness and schedules
// nothing; the histograms it fills live in the counter registry, so
// they merge at worker barriers and export with the rest of the
// metrics. A nil tracker (observation disabled, or latency not
// enabled) costs nothing — every feed site nil-checks first.
package obs

import (
	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
)

// latSentCap bounds the pending send-time table: a data sequence whose
// delivery has not been observed after this many newer sends is
// evicted (its delay will simply not be sampled). Keeps a lossy or
// partitioned run from growing the table without bound.
const latSentCap = 4096

type latJoinKey struct {
	node addr.Addr
	ch   addr.Channel
}

type latSeqKey struct {
	ch  addr.Channel
	seq uint32
}

// Latency derives delay distributions from the event stream:
//
//   - Delivery: end-to-end data delay, paired KindSend -> first
//     KindConsume/KindDeliver of the same (channel, seq). In direct
//     mode (the live runtime) the pairing is off and the transport
//     feeds ObserveDelivery with wall-clock delays computed from the
//     origination timestamp its frames carry — event pairing cannot
//     see across processes.
//   - Hop: per-hop forwarding delay, fed by the transport (link cost
//     in the simulator, measured wall delay on the live runtime).
//   - JoinFirst: a receiver's first join (KindJoinSend with detail
//     "first") to its first delivered data packet, paired per
//     (node, channel) — local to a node, so it works identically in
//     simulation and across live daemons.
//   - Converge: per-channel convergence burst duration, fed by
//     whoever probes the ConvergeTracker (the daemon's telemetry
//     loop; see MarkConverged).
type Latency struct {
	Delivery  *Histogram
	Hop       *Histogram
	JoinFirst *Histogram
	Converge  *Histogram

	direct bool
	joins  map[latJoinKey]eventsim.Time
	sent   map[latSeqKey]eventsim.Time
	ring   []latSeqKey
	next   int
}

// NewLatency builds a tracker whose histograms are registered in c.
func NewLatency(c *Counters) *Latency {
	return &Latency{
		Delivery:  c.Hist("hbh_delivery_delay"),
		Hop:       c.Hist("hbh_hop_delay"),
		JoinFirst: c.Hist("hbh_join_first_delay"),
		Converge:  c.Hist("hbh_converge_time"),
		joins:     make(map[latJoinKey]eventsim.Time),
		sent:      make(map[latSeqKey]eventsim.Time),
	}
}

// EnableLatency attaches (and returns) the latency tracker, enabling
// the counter registry its histograms live in.
func (o *Observer) EnableLatency() *Latency {
	if o.latency == nil {
		o.latency = NewLatency(o.EnableCounters())
	}
	return o.latency
}

// Latency returns the tracker (nil when not enabled).
func (o *Observer) Latency() *Latency { return o.latency }

// SetDirect switches off send/deliver event pairing for the Delivery
// histogram: the live runtime computes cross-process delivery delays
// from frame timestamps and feeds ObserveDelivery directly, so the
// (single-process) event pairing would double-count.
func (l *Latency) SetDirect(on bool) { l.direct = on }

// ObserveDelivery records one end-to-end delivery delay directly.
func (l *Latency) ObserveDelivery(d float64) { l.Delivery.Observe(d) }

// ObserveHop records one per-hop forwarding delay directly.
func (l *Latency) ObserveHop(d float64) { l.Hop.Observe(d) }

// ObserveConverge records one convergence burst duration directly.
func (l *Latency) ObserveConverge(d float64) { l.Converge.Observe(d) }

// noteSent records a data origination time, evicting the oldest
// pending entry past the cap. Only the first send of a (channel, seq)
// counts: every later KindSend of it is a branching node's replica, and
// a delivery's delay runs from the source.
func (l *Latency) noteSent(k latSeqKey, at eventsim.Time) {
	if _, ok := l.sent[k]; ok {
		return
	}
	if len(l.ring) < latSentCap {
		l.ring = append(l.ring, k)
	} else {
		delete(l.sent, l.ring[l.next])
		l.ring[l.next] = k
		l.next = (l.next + 1) % latSentCap
	}
	l.sent[k] = at
}

// Apply folds one event into the tracker.
func (l *Latency) Apply(ev Event) { l.apply(&ev) }

func (l *Latency) apply(ev *Event) {
	switch ev.Kind {
	case KindJoinSend:
		// A receiver's first join opens its join-to-first-packet
		// window; branching-router self joins carry other details and
		// are ignored.
		if ev.Detail == "first" {
			l.joins[latJoinKey{ev.Node, ev.Channel}] = ev.At
		}
	case KindSend:
		if l.direct || ev.Msg == nil {
			return
		}
		if _, isData := ev.Msg.(*packet.Data); isData {
			l.noteSent(latSeqKey{ev.Channel, ev.Seq}, ev.At)
		}
	case KindConsume, KindDeliver:
		if ev.Msg == nil {
			return
		}
		if _, isData := ev.Msg.(*packet.Data); !isData {
			return
		}
		if t0, ok := l.joins[latJoinKey{ev.Node, ev.Channel}]; ok {
			l.JoinFirst.Observe(float64(ev.At - t0))
			delete(l.joins, latJoinKey{ev.Node, ev.Channel})
		}
		if l.direct {
			return
		}
		// The send entry stays: the same sequence is consumed once per
		// member, and each consumption is one delay sample.
		if t0, ok := l.sent[latSeqKey{ev.Channel, ev.Seq}]; ok {
			l.Delivery.Observe(float64(ev.At - t0))
		}
	}
}
