// Package packet defines the wire formats of every message the
// simulated protocols exchange: join, tree and fusion control messages
// (HBH and REUNITE) and multicast data packets, all carried over
// unicast headers — the essence of the recursive-unicast approach is
// that packets in flight always have unicast destination addresses.
//
// Messages marshal to a compact binary format with an internet-style
// checksum. The simulator normally passes decoded packets between
// hops, but round-trips every message type through the codec in tests
// to guarantee the formats are complete and unambiguous.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hbh/internal/addr"
)

// Version is the wire format version carried in every header.
const Version = 1

// Type discriminates the message kinds.
type Type uint8

const (
	// TypeInvalid is the zero Type; never valid on the wire.
	TypeInvalid Type = iota
	// TypeJoin is the receiver->source channel subscription refresh.
	TypeJoin
	// TypeTree is the source->receivers soft-state refresh, forwarded
	// down the distribution tree.
	TypeTree
	// TypeFusion is the HBH upstream message from a potential
	// branching router (HBH only).
	TypeFusion
	// TypeData is a multicast data packet delivered over the recursive
	// unicast tree.
	TypeData
)

func (t Type) String() string {
	switch t {
	case TypeJoin:
		return "join"
	case TypeTree:
		return "tree"
	case TypeFusion:
		return "fusion"
	case TypeData:
		return "data"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Protocol identifies which routing protocol a control message belongs
// to, so routers running different protocols on shared infrastructure
// never misinterpret each other's soft state.
type Protocol uint8

const (
	// ProtoNone marks data packets, which belong to the channel rather
	// than to a specific control protocol.
	ProtoNone Protocol = iota
	// ProtoHBH marks HBH control messages.
	ProtoHBH
	// ProtoREUNITE marks REUNITE control messages.
	ProtoREUNITE
)

func (p Protocol) String() string {
	switch p {
	case ProtoNone:
		return "none"
	case ProtoHBH:
		return "hbh"
	case ProtoREUNITE:
		return "reunite"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Flag bits carried in the header.
const (
	// FlagFirst marks a receiver's very first join for a channel. HBH
	// never intercepts a first join, which is what lets it discover
	// the true shortest-path join point at the source.
	FlagFirst uint8 = 1 << iota
	// FlagMarked marks a REUNITE tree message whose MFT.dst entry is
	// stale, announcing that the data flow addressed to that receiver
	// will stop soon and triggering tree reconfiguration.
	FlagMarked
)

// Header is the fixed part of every message: the channel it belongs
// to and the unicast addressing of this hop's carrier packet.
type Header struct {
	Proto   Protocol
	Type    Type
	Flags   uint8
	Channel addr.Channel
	// Src is the unicast address of the node that emitted the packet
	// (not rewritten hop by hop).
	Src addr.Addr
	// Dst is the unicast destination address. Branching routers in the
	// recursive unicast scheme rewrite Dst on the copies they emit.
	Dst addr.Addr
}

// Join subscribes (and keeps subscribed) receiver R to the channel.
// Travels upstream toward the source, processed hop-by-hop.
type Join struct {
	Header
	// R is the receiver (or, after interception by a branching router
	// B that signs the join itself, the router B) being refreshed.
	R addr.Addr
}

// Tree is the downstream soft-state refresh. tree(S, R) travels from
// the source (or from a branching node regenerating it) toward R.
type Tree struct {
	Header
	// R is the tree target this refresh concerns.
	R addr.Addr
}

// Fusion is HBH's upstream repair message: a potential branching
// router Bp that observed tree messages for several targets R1..Rn
// announces itself so the upstream branching point can splice Bp into
// the tree and mark the individual targets.
type Fusion struct {
	Header
	// Bp is the prospective branching node (also the emitter).
	Bp addr.Addr
	// Rs lists the targets Bp is a branching node for.
	Rs []addr.Addr
}

// Data is a multicast payload packet delivered over the tree.
type Data struct {
	Header
	// Seq numbers packets within a channel for duplicate accounting.
	Seq uint32
	// Payload is the application payload.
	Payload []byte
}

// Message is any decodable protocol message.
type Message interface {
	Hdr() *Header
	// wireSize returns the marshalled body size (excluding header).
	wireSize() int
	// marshalBody writes every byte of b, which may hold an earlier
	// packet's: senders marshal into buffers they reuse.
	marshalBody(b []byte)
	// unmarshalBody decodes b; what it stores may alias b.
	unmarshalBody(b []byte) error
}

// Hdr implements Message.
func (h *Header) Hdr() *Header { return h }

// Wire layout: all integers big-endian.
//
//	 0: version (1)
//	 1: proto (1)
//	 2: type (1)
//	 3: flags (1)
//	 4: channel S (4)
//	 8: channel G (4)
//	12: src (4)
//	16: dst (4)
//	20: body length (2)
//	22: checksum (2)
//	24: body...
const headerSize = 24

// maxBody bounds body length; generous for any message we emit.
const maxBody = 64 * 1024

// WireBytes returns the message's marshalled size in bytes (header
// plus body) without marshalling it. The observability layer charges
// control-plane byte costs with it.
func WireBytes(m Message) int { return headerSize + m.wireSize() }

var (
	// ErrTruncated reports a packet shorter than its encoding claims.
	ErrTruncated = errors.New("packet: truncated")
	// ErrBadVersion reports an unsupported wire version.
	ErrBadVersion = errors.New("packet: bad version")
	// ErrBadType reports an unknown message type.
	ErrBadType = errors.New("packet: bad type")
	// ErrChecksum reports a checksum mismatch.
	ErrChecksum = errors.New("packet: checksum mismatch")
	// ErrBadBody reports a malformed body.
	ErrBadBody = errors.New("packet: bad body")
)

// Marshal encodes m to wire format in a buffer of its own.
func Marshal(m Message) ([]byte, error) {
	buf, err := AppendMarshal(make([]byte, 0, WireBytes(m)), m)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendMarshal appends m's wire format to dst and returns the extended
// slice: what a sender that frames packets into a buffer it reuses
// calls, so that a transmission allocates nothing. On error dst is
// returned as it was.
func AppendMarshal(dst []byte, m Message) ([]byte, error) {
	h := m.Hdr()
	if h.Type == TypeInvalid {
		return dst, ErrBadType
	}
	n := m.wireSize()
	if n > maxBody {
		return dst, fmt.Errorf("%w: body %d exceeds %d", ErrBadBody, n, maxBody)
	}
	off := len(dst)
	dst = slices.Grow(dst, headerSize+n)[:off+headerSize+n]
	buf := dst[off:]
	buf[0] = Version
	buf[1] = byte(h.Proto)
	buf[2] = byte(h.Type)
	buf[3] = h.Flags
	binary.BigEndian.PutUint32(buf[4:], uint32(h.Channel.S))
	binary.BigEndian.PutUint32(buf[8:], uint32(h.Channel.G))
	binary.BigEndian.PutUint32(buf[12:], uint32(h.Src))
	binary.BigEndian.PutUint32(buf[16:], uint32(h.Dst))
	binary.BigEndian.PutUint16(buf[20:], uint16(n))
	m.marshalBody(buf[headerSize:])
	binary.BigEndian.PutUint16(buf[22:], checksum(buf))
	return dst, nil
}

// Unmarshal decodes one message from buf. The message owns its storage:
// nothing in it aliases buf.
func Unmarshal(buf []byte) (Message, error) {
	return UnmarshalInto(nil, nil, buf)
}

// Control is storage for one control message of each type HBH and
// REUNITE exchange: what a runtime that owns a packet's storage for as
// long as the packet lives decodes a join, tree or fusion into, or
// copies one a sender built into. Fusion.Rs keeps its capacity from one
// message to the next.
type Control struct {
	Join   Join
	Tree   Tree
	Fusion Fusion
}

// UnmarshalInto decodes one message from buf like Unmarshal, except into
// storage the caller owns for exactly as long as the message lives: a
// data packet into *d, its Payload aliasing buf, and a join, tree or
// fusion into c's message of that type, the fusion's targets into the
// capacity Rs already has. A nil d or c gives that kind storage of its
// own, as does every other type.
func UnmarshalInto(d *Data, c *Control, buf []byte) (Message, error) {
	if len(buf) < headerSize {
		return nil, ErrTruncated
	}
	if buf[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, buf[0])
	}
	bodyLen := int(binary.BigEndian.Uint16(buf[20:]))
	if len(buf) < headerSize+bodyLen {
		return nil, ErrTruncated
	}
	buf = buf[:headerSize+bodyLen]
	want := binary.BigEndian.Uint16(buf[22:])
	if got := checksum(buf); got != want {
		return nil, fmt.Errorf("%w: got %04x want %04x", ErrChecksum, got, want)
	}
	h := Header{
		Proto: Protocol(buf[1]),
		Type:  Type(buf[2]),
		Flags: buf[3],
		Channel: addr.Channel{
			S: addr.Addr(binary.BigEndian.Uint32(buf[4:])),
			G: addr.Addr(binary.BigEndian.Uint32(buf[8:])),
		},
		Src: addr.Addr(binary.BigEndian.Uint32(buf[12:])),
		Dst: addr.Addr(binary.BigEndian.Uint32(buf[16:])),
	}
	var m Message
	own := false // a data packet decoded into storage allocated here
	switch h.Type {
	case TypeJoin:
		var j *Join
		if c != nil {
			j = &c.Join
		} else {
			j = new(Join)
		}
		j.Header = h
		m = j
	case TypeTree:
		var t *Tree
		if c != nil {
			t = &c.Tree
		} else {
			t = new(Tree)
		}
		t.Header = h
		m = t
	case TypeFusion:
		var f *Fusion
		if c != nil {
			f = &c.Fusion
		} else {
			f = new(Fusion)
		}
		f.Header = h
		m = f
	case TypeData:
		if own = d == nil; own {
			d = new(Data)
		}
		d.Header = h
		m = d
	default:
		var ok bool
		if m, ok = igmpMessage(h); !ok {
			return nil, fmt.Errorf("%w: %d", ErrBadType, buf[2])
		}
	}
	if err := m.unmarshalBody(buf[headerSize:]); err != nil {
		return nil, err
	}
	if own {
		d.Payload = append([]byte(nil), d.Payload...)
	}
	return m, nil
}

// checksum computes the 16-bit one's-complement sum over buf with the
// checksum field itself zeroed, the same construction as the IP header
// checksum.
func checksum(buf []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(buf); i += 2 {
		w := uint32(buf[i])<<8 | uint32(buf[i+1])
		if i == 22 { // checksum field counts as zero
			w = 0
		}
		sum += w
	}
	if len(buf)%2 == 1 {
		sum += uint32(buf[len(buf)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

func (j *Join) wireSize() int { return 4 }
func (j *Join) marshalBody(b []byte) {
	binary.BigEndian.PutUint32(b, uint32(j.R))
}
func (j *Join) unmarshalBody(b []byte) error {
	if len(b) != 4 {
		return fmt.Errorf("%w: join body %d bytes", ErrBadBody, len(b))
	}
	j.R = addr.Addr(binary.BigEndian.Uint32(b))
	return nil
}

// First reports the FlagFirst bit.
func (j *Join) First() bool { return j.Flags&FlagFirst != 0 }

func (t *Tree) wireSize() int { return 4 }
func (t *Tree) marshalBody(b []byte) {
	binary.BigEndian.PutUint32(b, uint32(t.R))
}
func (t *Tree) unmarshalBody(b []byte) error {
	if len(b) != 4 {
		return fmt.Errorf("%w: tree body %d bytes", ErrBadBody, len(b))
	}
	t.R = addr.Addr(binary.BigEndian.Uint32(b))
	return nil
}

// Marked reports the FlagMarked bit (REUNITE stale-dst announcement).
func (t *Tree) Marked() bool { return t.Flags&FlagMarked != 0 }

func (f *Fusion) wireSize() int { return 4 + 2 + 4*len(f.Rs) }
func (f *Fusion) marshalBody(b []byte) {
	binary.BigEndian.PutUint32(b, uint32(f.Bp))
	binary.BigEndian.PutUint16(b[4:], uint16(len(f.Rs)))
	for i, r := range f.Rs {
		binary.BigEndian.PutUint32(b[6+4*i:], uint32(r))
	}
}
func (f *Fusion) unmarshalBody(b []byte) error {
	if len(b) < 6 {
		return fmt.Errorf("%w: fusion body %d bytes", ErrBadBody, len(b))
	}
	f.Bp = addr.Addr(binary.BigEndian.Uint32(b))
	n := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) != 6+4*n {
		return fmt.Errorf("%w: fusion body %d bytes for %d targets", ErrBadBody, len(b), n)
	}
	// Reuse Rs's capacity; nil stays nil, so a fusion with no targets
	// decodes as it was built.
	f.Rs = slices.Grow(f.Rs[:0], n)[:n]
	for i := range f.Rs {
		f.Rs[i] = addr.Addr(binary.BigEndian.Uint32(b[6+4*i:]))
	}
	return nil
}

func (d *Data) wireSize() int { return 4 + 2 + len(d.Payload) }
func (d *Data) marshalBody(b []byte) {
	binary.BigEndian.PutUint32(b, d.Seq)
	binary.BigEndian.PutUint16(b[4:], uint16(len(d.Payload)))
	copy(b[6:], d.Payload)
}
func (d *Data) unmarshalBody(b []byte) error {
	if len(b) < 6 {
		return fmt.Errorf("%w: data body %d bytes", ErrBadBody, len(b))
	}
	d.Seq = binary.BigEndian.Uint32(b)
	n := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) != 6+n {
		return fmt.Errorf("%w: data body %d bytes for %d payload", ErrBadBody, len(b), n)
	}
	d.Payload = b[6:] // aliases b: UnmarshalInto decides who owns it
	return nil
}

// Clone returns a deep copy of m with an independent header, so a
// branching router can rewrite the destination of each emitted copy
// without aliasing.
func Clone(m Message) Message {
	switch v := m.(type) {
	case *Join:
		c := *v
		return &c
	case *Tree:
		c := *v
		return &c
	case *Fusion:
		c := *v
		c.Rs = append([]addr.Addr(nil), v.Rs...)
		return &c
	case *Data:
		c := *v
		c.Payload = append([]byte(nil), v.Payload...)
		return &c
	default:
		if c, ok := igmpClone(m); ok {
			return c
		}
		panic(fmt.Sprintf("packet: Clone of unknown type %T", m))
	}
}

// Format renders a message compactly for traces, e.g.
// "hbh join(S=10.0.0.0, R=10.1.0.3) 10.1.0.3->10.0.0.0 [first]".
func Format(m Message) string {
	h := m.Hdr()
	var body, flags string
	switch v := m.(type) {
	case *Join:
		body = fmt.Sprintf("join(%v, R=%v)", h.Channel, v.R)
		if v.First() {
			flags = " [first]"
		}
	case *Tree:
		body = fmt.Sprintf("tree(%v, R=%v)", h.Channel, v.R)
		if v.Marked() {
			flags = " [marked]"
		}
	case *Fusion:
		body = fmt.Sprintf("fusion(%v, Bp=%v, Rs=%v)", h.Channel, v.Bp, v.Rs)
	case *Data:
		body = fmt.Sprintf("data(%v, seq=%d, %dB)", h.Channel, v.Seq, len(v.Payload))
	default:
		if s, ok := igmpFormat(m); ok {
			body = s
		} else {
			body = fmt.Sprintf("%T", m)
		}
	}
	return fmt.Sprintf("%v %s %v->%v%s", h.Proto, body, h.Src, h.Dst, flags)
}
