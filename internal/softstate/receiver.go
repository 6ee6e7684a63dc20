package softstate

import (
	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
)

// Delivery records one data packet arriving at a receiver.
type Delivery struct {
	Seq uint32
	// At is the arrival time; together with the send time it yields the
	// receiver delay the paper plots in Figure 8.
	At eventsim.Time
}

// Receiver is the member-host agent: it subscribes to a channel by
// emitting a join at once and then periodic refresh joins, consumes
// tree messages addressed to it, and records data deliveries.
type Receiver struct {
	cfg   Config
	node  netsim.ProtoNode
	clk   clock.Clock
	ch    addr.Channel
	proto packet.Protocol
	// flagFirst puts packet.FlagFirst on the initial join of each
	// subscription (HBH: no branching router intercepts it). Without it
	// "first" is an observability label only.
	flagFirst bool
	ticker    *clock.Ticker
	joined    bool
	join      packet.Join // every join is built here (SendJoin)

	// Deliveries lists data arrivals in order. DupCount counts
	// duplicate sequence numbers (within the last Window's span), which
	// a converged HBH tree must not produce.
	Deliveries []Delivery
	DupCount   int
	seen       Window
	// TreeMsgs counts tree refreshes addressed to this receiver.
	TreeMsgs int

	// OnData, when non-nil, is invoked on every data arrival.
	OnData func(d Delivery)

	// lifeSpan covers the whole subscription (Join..Leave); joinSpan is
	// its child covering the joining phase, closed by the first data
	// delivery — the per-receiver convergence moment the trace exposes.
	lifeSpan, joinSpan obs.SpanID
}

// AttachReceiver creates a (not yet joined) receiver agent on host n
// for channel ch, speaking proto on the wire.
func AttachReceiver(n netsim.ProtoNode, ch addr.Channel, cfg Config, proto packet.Protocol, flagFirst bool) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !ch.Valid() {
		panic("softstate: invalid channel")
	}
	r := &Receiver{
		cfg:       cfg,
		node:      n,
		clk:       n.Clock(),
		ch:        ch,
		proto:     proto,
		flagFirst: flagFirst,
	}
	n.AddHandler(r)
	return r
}

// Addr returns the receiver's unicast address.
func (r *Receiver) Addr() addr.Addr { return r.node.Addr() }

// Joined reports whether the receiver is currently subscribed.
func (r *Receiver) Joined() bool { return r.joined }

// Join subscribes: an immediate first join, then refresh joins every
// JoinInterval.
func (r *Receiver) Join() {
	if r.joined {
		return
	}
	r.joined = true
	if o := r.node.Observer(); o != nil {
		r.lifeSpan = o.BeginSpan("receiver-lifecycle", r.ch, r.node.Addr(), r.node.Name(), 0)
		r.joinSpan = o.BeginSpan("joining", r.ch, r.node.Addr(), r.node.Name(), r.lifeSpan)
	}
	r.sendJoin(true)
	r.ticker = clock.NewTicker(r.clk, r.cfg.JoinInterval, func() { r.sendJoin(false) })
}

// Leave unsubscribes by silence: the receiver simply stops sending
// join messages and its soft state times out upstream, exactly the
// paper's departure model.
func (r *Receiver) Leave() {
	if !r.joined {
		return
	}
	r.joined = false
	r.ticker.Stop()
	r.ticker = nil
	if o := r.node.Observer(); o != nil {
		o.EndSpan(r.joinSpan, "joining", r.ch, r.node.Addr(), r.node.Name())
		o.EndSpan(r.lifeSpan, "receiver-lifecycle", r.ch, r.node.Addr(), r.node.Name())
	}
	r.joinSpan, r.lifeSpan = 0, 0
}

func (r *Receiver) sendJoin(first bool) {
	// A join is a spontaneous protocol action: it roots a causal
	// episode, and everything the join triggers downstream (admission,
	// later tree refreshes of the installed entry, fusion rewrites)
	// chains back to this event.
	c := r.node.Root()
	if r.node.Observer() != nil {
		detail := "refresh"
		if first {
			detail = "first"
		}
		// A receiver's join names the source by address: naming the
		// peer keeps Emit from putting its topology label there.
		c = r.node.Emit(c, obs.Event{
			Kind: obs.KindJoinSend, Channel: r.ch, Peer: r.ch.S, PeerName: r.ch.S.String(),
			Span: r.joinSpan, Parent: r.lifeSpan, Detail: detail,
		})
	}
	SendJoin(r.node, &r.join, c, r.proto, r.ch, first && r.flagFirst)
}

// Handle implements netsim.Handler: consume channel traffic addressed
// to this host.
func (r *Receiver) Handle(n netsim.ProtoNode, msg packet.Message, _ obs.Causal) netsim.Verdict {
	h := msg.Hdr()
	if h.Dst != r.node.Addr() || h.Channel != r.ch {
		return netsim.Continue
	}
	switch m := msg.(type) {
	case *packet.Tree:
		if m.Proto != r.proto {
			return netsim.Continue
		}
		r.TreeMsgs++
		return netsim.Consumed
	case *packet.Data:
		d := Delivery{Seq: m.Seq, At: r.clk.Now()}
		if r.seen.Seen(m.Seq) {
			r.DupCount++
		}
		r.Deliveries = append(r.Deliveries, d)
		if r.joinSpan != 0 {
			// First data delivery: the joining phase of the lifecycle
			// span ends here — this receiver's tree is carrying data.
			if o := r.node.Observer(); o != nil {
				o.EndSpan(r.joinSpan, "joining", r.ch, r.node.Addr(), r.node.Name())
			}
			r.joinSpan = 0
		}
		if r.OnData != nil {
			r.OnData(d)
		}
		return netsim.Consumed
	default:
		return netsim.Continue
	}
}

// DeliveryAt returns the arrival time of the first copy of packet seq.
// It implements mtree.Member.
func (r *Receiver) DeliveryAt(seq uint32) (eventsim.Time, bool) {
	for _, d := range r.Deliveries {
		if d.Seq == seq {
			return d.At, true
		}
	}
	return 0, false
}

// DeliveryCount returns how many copies of packet seq arrived. It
// implements mtree.Member.
func (r *Receiver) DeliveryCount(seq uint32) int {
	n := 0
	for _, d := range r.Deliveries {
		if d.Seq == seq {
			n++
		}
	}
	return n
}

// ResetDeliveries clears the delivery log between measurement probes.
// The log keeps its capacity: Deliveries read before the reset is
// overwritten by the arrivals after it.
func (r *Receiver) ResetDeliveries() {
	r.Deliveries = r.Deliveries[:0]
	r.DupCount = 0
	r.seen = Window{}
}
