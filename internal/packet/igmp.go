package packet

import (
	"fmt"
)

// IGMP-style local membership messages. The paper's receiver model
// attaches end hosts to their border router "through IGMP" and notes
// that the number of receivers behind one router does not influence
// the cost of the multicast tree — the router aggregates them behind a
// single channel subscription. These two messages implement that local
// protocol on the host links.

const (
	// TypeQuery is the router->host membership query.
	TypeQuery Type = 10 + iota
	// TypeReport is the host->router membership report.
	TypeReport
)

// Query asks the hosts on a link which channels they are members of.
type Query struct {
	Header
	// General reports membership for all channels when true; otherwise
	// the query concerns Header.Channel only.
	General bool
}

// Report announces (or refreshes) a host's membership in the header's
// channel.
type Report struct {
	Header
	// Leave marks an explicit leave (IGMPv2-style) instead of a
	// membership refresh.
	Leave bool
}

func (q *Query) wireSize() int { return 1 }
func (q *Query) marshalBody(b []byte) {
	b[0] = 0
	if q.General {
		b[0] = 1
	}
}
func (q *Query) unmarshalBody(b []byte) error {
	if len(b) != 1 {
		return fmt.Errorf("%w: query body %d bytes", ErrBadBody, len(b))
	}
	q.General = b[0] != 0
	return nil
}

func (r *Report) wireSize() int { return 1 }
func (r *Report) marshalBody(b []byte) {
	b[0] = 0
	if r.Leave {
		b[0] = 1
	}
}
func (r *Report) unmarshalBody(b []byte) error {
	if len(b) != 1 {
		return fmt.Errorf("%w: report body %d bytes", ErrBadBody, len(b))
	}
	r.Leave = b[0] != 0
	return nil
}

// igmpType decodes the IGMP message kinds in Unmarshal.
func igmpMessage(h Header) (Message, bool) {
	switch h.Type {
	case TypeQuery:
		return &Query{Header: h}, true
	case TypeReport:
		return &Report{Header: h}, true
	default:
		return nil, false
	}
}

// igmpClone deep-copies the IGMP message kinds for Clone.
func igmpClone(m Message) (Message, bool) {
	switch v := m.(type) {
	case *Query:
		c := *v
		return &c, true
	case *Report:
		c := *v
		return &c, true
	default:
		return nil, false
	}
}

// igmpFormat renders the IGMP message kinds for Format.
func igmpFormat(m Message) (string, bool) {
	switch v := m.(type) {
	case *Query:
		if v.General {
			return "query(general)", true
		}
		return fmt.Sprintf("query(%v)", v.Channel), true
	case *Report:
		verb := "report"
		if v.Leave {
			verb = "leave"
		}
		return fmt.Sprintf("%s(%v)", verb, v.Channel), true
	default:
		return "", false
	}
}
