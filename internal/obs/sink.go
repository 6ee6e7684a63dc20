package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/packet"
)

// TextSink renders events as the human-readable trace lines the
// simulator has always printed: a fixed-width virtual timestamp,
// the node, an uppercase verb, and the formatted packet. Transport
// events render byte-identically to the pre-obs tracer, and the
// protocol events the engines emit interleave in the same style.
type TextSink struct {
	Out func(line string)
}

// NewTextSink wraps a line consumer.
func NewTextSink(out func(line string)) *TextSink { return &TextSink{Out: out} }

// Emit implements Sink.
func (t *TextSink) Emit(ev Event) {
	if t.Out == nil {
		return
	}
	if ev.Kind == KindRecorderDump {
		// Multi-line payload: timestamp the header, indent the body.
		t.Out(stamp(ev) + fmt.Sprintf("%s FLIGHT-RECORDER dump (drop cause: %s)", ev.NodeName, ev.Cause))
		for _, line := range strings.Split(strings.TrimRight(ev.Detail, "\n"), "\n") {
			t.Out("          | " + line)
		}
		return
	}
	t.Out(stamp(ev) + Line(ev))
}

func stamp(ev Event) string {
	return fmt.Sprintf("%8.1f  ", float64(ev.At))
}

// fmtMsg renders the packet, tolerating events without one.
func fmtMsg(ev Event) string {
	if ev.Msg == nil {
		return "(no packet)"
	}
	return packet.Format(ev.Msg)
}

// Line renders one event without the timestamp prefix. The transport
// kinds reproduce the legacy netsim trace vocabulary verbatim; protocol
// kinds use the same NODE VERB detail shape.
func Line(ev Event) string {
	return lineMsg(ev, fmtMsg(ev), ev.Msg != nil)
}

// lineMsg is Line with the packet rendering supplied by the caller:
// the live path formats ev.Msg, the replay path (replay.go) re-renders
// events whose packet survives only as the JSONL msg string.
func lineMsg(ev Event, msg string, hasMsg bool) string {
	switch ev.Kind {
	case KindSend:
		return fmt.Sprintf("%s SEND %s", ev.NodeName, msg)
	case KindSendDirect:
		return fmt.Sprintf("%s SEND-DIRECT->%s %s", ev.NodeName, ev.PeerName, msg)
	case KindForward:
		return fmt.Sprintf("%s FORWARD->%s %s", ev.NodeName, ev.PeerName, msg)
	case KindConsume:
		return fmt.Sprintf("%s CONSUME %s", ev.NodeName, msg)
	case KindDeliver:
		return fmt.Sprintf("%s DELIVER %s", ev.NodeName, msg)
	case KindDrop:
		switch ev.Cause {
		case CauseNoRoute:
			return fmt.Sprintf("%s DROP no route: %s", ev.NodeName, msg)
		case CauseHopLimit:
			return fmt.Sprintf("%s DROP hop limit: %s", ev.NodeName, msg)
		case CauseLinkDown:
			return fmt.Sprintf("%s DROP link down ->%s: %s", ev.NodeName, ev.PeerName, msg)
		case CauseNodeDown:
			return fmt.Sprintf("%s DROP node down: %s", ev.NodeName, msg)
		case CauseNonUnicast:
			return fmt.Sprintf("%s DROP non-unicast dst: %s", ev.NodeName, msg)
		case CauseUnclaimedMulticast:
			return fmt.Sprintf("%s DROP unclaimed multicast: %s", ev.NodeName, msg)
		default:
			return fmt.Sprintf("%s DROP %s", ev.NodeName, msg)
		}
	case KindNote, KindFault:
		return ev.Detail
	case KindSpanBegin:
		return fmt.Sprintf("%s SPAN-BEGIN %s %v [span %d]", ev.NodeName, ev.Detail, ev.Channel, ev.Span)
	case KindSpanEnd:
		return fmt.Sprintf("%s SPAN-END %s %v [span %d]", ev.NodeName, ev.Detail, ev.Channel, ev.Span)
	default:
		// Protocol kinds: NODE VERB channel [peer] [msg/detail].
		var b strings.Builder
		b.WriteString(ev.NodeName)
		b.WriteByte(' ')
		b.WriteString(strings.ToUpper(ev.Kind.String()))
		if ev.Channel != (addr.Channel{}) {
			b.WriteByte(' ')
			b.WriteString(ev.Channel.String())
		}
		if ev.PeerName != "" {
			b.WriteString(" ->")
			b.WriteString(ev.PeerName)
		} else if ev.Peer != 0 {
			b.WriteString(" ->")
			b.WriteString(ev.Peer.String())
		}
		if hasMsg {
			b.WriteByte(' ')
			b.WriteString(msg)
		}
		if ev.Detail != "" {
			b.WriteString(" (")
			b.WriteString(ev.Detail)
			b.WriteByte(')')
		}
		return b.String()
	}
}

// JSONLSink renders one JSON object per event, one per line, suitable
// for grepping and for jq. Zero-valued fields are omitted, so a
// receiver's whole lifecycle is selected by grepping its channel string
// and node name. The encoder is hand-rolled (strconv.Quote) so the
// event schema stays explicit and the package needs no reflection.
type JSONLSink struct {
	W io.Writer
	// Wall, when set, stamps every line with a "wall" field (nanoseconds
	// since the Unix epoch). The live daemons set it so per-process
	// trace files can be merged into one cross-process timeline — the
	// virtual "t" stamps of different processes share no clock, but
	// their (NTP-disciplined) wall clocks do, coarsely.
	Wall func() int64
	// buf is reused across events to keep the trace path cheap.
	buf []byte
}

// NewJSONLSink writes events to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{W: w} }

// Emit implements Sink.
func (j *JSONLSink) Emit(ev Event) {
	if j.W == nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, float64(ev.At), 'f', -1, 64)
	if j.Wall != nil {
		b = append(b, `,"wall":`...)
		b = strconv.AppendInt(b, j.Wall(), 10)
	}
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, ev.Kind.String())
	if ev.NodeName != "" || ev.Node != 0 {
		b = append(b, `,"node":`...)
		b = strconv.AppendQuote(b, ev.NodeName)
		b = append(b, `,"node_addr":`...)
		b = strconv.AppendQuote(b, ev.Node.String())
	}
	if ev.PeerName != "" || ev.Peer != 0 {
		b = append(b, `,"peer":`...)
		if ev.PeerName != "" {
			b = strconv.AppendQuote(b, ev.PeerName)
		} else {
			b = strconv.AppendQuote(b, ev.Peer.String())
		}
	}
	if ev.Channel != (addr.Channel{}) {
		b = append(b, `,"ch":`...)
		b = strconv.AppendQuote(b, ev.Channel.String())
	}
	if ev.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, uint64(ev.Seq), 10)
	}
	if ev.Cause != CauseNone {
		b = append(b, `,"cause":`...)
		b = strconv.AppendQuote(b, ev.Cause.String())
	}
	if ev.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, uint64(ev.Span), 10)
	}
	if ev.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(ev.Parent), 10)
	}
	if ev.Episode != 0 {
		b = append(b, `,"ep":`...)
		b = strconv.AppendUint(b, uint64(ev.Episode), 10)
	}
	if ev.Step != 0 {
		b = append(b, `,"step":`...)
		b = strconv.AppendUint(b, uint64(ev.Step), 10)
	}
	if ev.ParentStep != 0 {
		b = append(b, `,"pstep":`...)
		b = strconv.AppendUint(b, uint64(ev.ParentStep), 10)
	}
	if ev.Msg != nil {
		b = append(b, `,"msg":`...)
		b = strconv.AppendQuote(b, packet.Format(ev.Msg))
	}
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = strconv.AppendQuote(b, ev.Detail)
	}
	b = append(b, '}', '\n')
	j.buf = b
	j.W.Write(b) //nolint:errcheck // tracing is best-effort
}

// ParseFilter compiles a -trace-filter spec into an event predicate.
// The spec is a list of terms separated by commas, slashes or spaces
// ("<S,G>/h4" reads naturally as "that channel at that node"); a term
// that looks like a channel ("<10.0.0.0,224.0.0.1>" or
// "10.0.0.0,224.0.0.1" — in the latter form the comma belongs to the
// term, so it cannot be combined with other terms) selects that <S,G>
// channel, any other term selects a node by topology name or address. Channel terms and node terms are
// AND-ed across groups and OR-ed within one: an event passes if it
// matches any given channel term (or none were given) and any given
// node term (or none were given). Events with no channel (pure
// transport notes) pass the channel check only when the node check
// pins them down.
func ParseFilter(spec string) (func(*Event) bool, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var channels []addr.Channel
	var nodes []string

	// A bare "S,G" pair (one comma, both halves parse as addresses) is
	// a channel; otherwise commas separate terms, except inside <...>
	// where the comma belongs to the channel.
	if ch, ok := parseChannel(spec); ok {
		channels = append(channels, ch)
	} else {
		for _, term := range splitTerms(spec) {
			if ch, ok := parseChannel(term); ok {
				channels = append(channels, ch)
			} else {
				nodes = append(nodes, term)
			}
		}
	}
	if len(channels) == 0 && len(nodes) == 0 {
		return nil, fmt.Errorf("obs: empty trace filter %q", spec)
	}
	return func(ev *Event) bool {
		if len(channels) > 0 {
			ok := false
			for _, ch := range channels {
				if ev.Channel == ch {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		if len(nodes) > 0 {
			ok := false
			for _, nd := range nodes {
				if ev.NodeName == nd || ev.PeerName == nd ||
					ev.Node.String() == nd || ev.Peer.String() == nd {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}, nil
}

// splitTerms splits a filter spec on commas, slashes and spaces,
// keeping "<S,G>" intact.
func splitTerms(spec string) []string {
	var terms []string
	depth := 0
	start := 0
	flush := func(end int) {
		if t := strings.TrimSpace(spec[start:end]); t != "" {
			terms = append(terms, t)
		}
	}
	for i, r := range spec {
		switch r {
		case '<':
			depth++
		case '>':
			if depth > 0 {
				depth--
			}
		case ',', '/', ' ', '\t':
			if depth == 0 {
				flush(i)
				start = i + 1
			}
		}
	}
	flush(len(spec))
	return terms
}

// parseChannel accepts "<S,G>" or "S,G" where S and G are dotted quads.
func parseChannel(s string) (addr.Channel, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "<")
	s = strings.TrimSuffix(s, ">")
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return addr.Channel{}, false
	}
	src, err1 := addr.Parse(strings.TrimSpace(parts[0]))
	grp, err2 := addr.Parse(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return addr.Channel{}, false
	}
	return addr.Channel{S: src, G: grp}, true
}
