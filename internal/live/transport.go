// Package live executes the protocol engines concurrently: one
// goroutine per hosted router/host over a real transport, instead of
// the single-threaded virtual-time loop in netsim. The nodes and their
// packet ladder are netsim's own (netsim.NewWired); what this package
// adds is the link step — the frame codec, the transports and the
// receive half that queues each arrival on its destination's clock —
// and the per-node goroutine, wall clock, Do and Quiesce. Run under the
// simulated clock it is deterministic, and the equivalence tests prove
// that its frame wire and netsim's reference wire agree byte for byte
// (see equivalence_test.go); run under the wall clock and UDP it is the
// hbhd daemon's engine room.
package live

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// frameOverhead is the transport framing prepended to every wire
// packet: the sender's node ID (4 bytes, big endian), the remaining
// hop budget (1 byte), the causal (episode, step) stamp (8+8 bytes),
// and two timestamps — origination and last-hop transmission (8+8
// bytes, nanoseconds of the sending process's stamp clock). The hop
// budget lives in the frame, not the packet header, exactly as netsim
// keeps it in the envelope: the paper's messages have no TTL field and
// the wire codec stays byte-identical between the simulator and the
// live runtime. The causal stamp extends the same idea across
// processes — netsim threads (episode, step) through its envelopes,
// the live transport threads it through its frames, so hbhtrace can
// merge per-daemon trace files into one causal DAG. The timestamps
// feed the wall-clock delivery and hop-delay histograms.
const frameOverhead = 37

// maxFrame bounds a received datagram.
const maxFrame = 64 * 1024

// frameMeta is the decoded transport framing: the in-flight metadata
// netsim keeps in its envelopes, carried over the wire instead.
type frameMeta struct {
	from topology.NodeID
	ttl  int
	// cause is the packet's causal pair: the episode it belongs to and
	// the step of the event that put it on the wire (the origination
	// send or the previous hop's forward).
	cause obs.Causal
	// origAt is the stamp-clock time the packet was originated; hopAt
	// the time the last hop transmitted this frame.
	origAt int64
	hopAt  int64
}

// appendFrame appends msg framed by fm to dst: the framing, then the
// packet in wire format. A sender passes a buffer it reuses, so a
// transmission allocates nothing.
func appendFrame(dst []byte, fm frameMeta, msg packet.Message) ([]byte, error) {
	var h [frameOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(fm.from))
	h[4] = uint8(fm.ttl) // New refuses a hop limit that does not fit
	binary.BigEndian.PutUint64(h[5:13], uint64(fm.cause.Episode))
	binary.BigEndian.PutUint64(h[13:21], uint64(fm.cause.Step))
	binary.BigEndian.PutUint64(h[21:29], uint64(fm.origAt))
	binary.BigEndian.PutUint64(h[29:37], uint64(fm.hopAt))
	return packet.AppendMarshal(append(dst, h[:]...), msg)
}

// decodeFrame splits a frame into its metadata and the packet, which
// it checksum-verifies and decodes as packet.UnmarshalInto does: a data
// packet into *d with its payload aliasing f, a join, tree or fusion
// into c, anything else (and a kind whose storage is nil) into storage
// of its own.
func decodeFrame(f []byte, d *packet.Data, c *packet.Control) (fm frameMeta, msg packet.Message, err error) {
	if len(f) < frameOverhead {
		return frameMeta{}, nil, fmt.Errorf("live: short frame (%d bytes)", len(f))
	}
	fm.from = topology.NodeID(binary.BigEndian.Uint32(f[0:4]))
	fm.ttl = int(f[4])
	fm.cause.Episode = obs.EpisodeID(binary.BigEndian.Uint64(f[5:13]))
	fm.cause.Step = obs.StepID(binary.BigEndian.Uint64(f[13:21]))
	fm.origAt = int64(binary.BigEndian.Uint64(f[21:29]))
	fm.hopAt = int64(binary.BigEndian.Uint64(f[29:37]))
	msg, err = packet.UnmarshalInto(d, c, f[frameOverhead:])
	return fm, msg, err
}

// DeliverFunc receives a frame addressed to hosted node to. Transports
// call it from their receive path; the runtime turns it into an
// arrival in to's queue (or an event, under the simulated clock). It
// copies what it keeps before it returns: frame is the caller's again.
type DeliverFunc func(to topology.NodeID, frame []byte)

// Transport moves frames between adjacent nodes. Send must be safe for
// concurrent use and must not keep frame once it returns: the sender
// builds its next frame in the same bytes.
type Transport interface {
	Send(from, to topology.NodeID, frame []byte) error
	Close() error
}

// inProcess is the in-process transport, the default of both modes: a
// frame goes straight to the runtime's deliver callback on the sender's
// goroutine. Delivery only copies the frame into an arrival envelope
// and queues that on the destination (an event under the simulated
// clock), so it never blocks and never runs the destination's engines.
type inProcess struct{ deliver DeliverFunc }

func (t inProcess) Send(from, to topology.NodeID, frame []byte) error {
	t.deliver(to, frame)
	return nil
}

func (inProcess) Close() error { return nil }

// UDPTransport sends frames as UDP datagrams using a node address
// book (NodeID -> host:port). Every hosted node gets its own bound
// socket and read goroutine, so one process can host one router (the
// daemon deployment) or a whole topology on loopback (the e2e tests).
type UDPTransport struct {
	deliver DeliverFunc
	book    map[topology.NodeID]*net.UDPAddr

	mu     sync.Mutex
	conns  map[topology.NodeID]*net.UDPConn
	sender *net.UDPConn // for frames whose source is not hosted here
	closed bool
	wg     sync.WaitGroup
}

// NewUDPTransport binds a socket for every hosted node at its
// address-book endpoint and starts the read loops. book must cover
// every node frames will be sent to or from.
func NewUDPTransport(hosted []topology.NodeID, book map[topology.NodeID]string, deliver DeliverFunc) (*UDPTransport, error) {
	t := &UDPTransport{
		deliver: deliver,
		book:    make(map[topology.NodeID]*net.UDPAddr, len(book)),
		conns:   make(map[topology.NodeID]*net.UDPConn, len(hosted)),
	}
	for id, ep := range book {
		ua, err := net.ResolveUDPAddr("udp", ep)
		if err != nil {
			return nil, fmt.Errorf("live: address book entry %d (%s): %w", id, ep, err)
		}
		t.book[id] = ua
	}
	for _, id := range hosted {
		ua, ok := t.book[id]
		if !ok {
			t.Close()
			return nil, fmt.Errorf("live: hosted node %d missing from address book", id)
		}
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("live: bind node %d at %s: %w", id, ua, err)
		}
		t.conns[id] = conn
		if ua.Port == 0 {
			// Ephemeral bind: record the real endpoint so peers hosted
			// in this process can address the node.
			t.book[id] = conn.LocalAddr().(*net.UDPAddr)
		}
		t.wg.Add(1)
		go t.readLoop(id, conn)
	}
	sender, err := net.ListenUDP("udp", nil)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.sender = sender
	return t, nil
}

// readLoop hands every datagram to deliver in the one buffer it reads
// into: deliver keeps nothing of it (see DeliverFunc). The sender's
// address is not asked for — the frame names its sender, and reporting
// the address costs an allocation per datagram.
func (t *UDPTransport) readLoop(id topology.NodeID, conn *net.UDPConn) {
	defer t.wg.Done()
	buf := make([]byte, maxFrame)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return // socket closed
		}
		t.deliver(id, buf[:n])
	}
}

// Send implements Transport.
func (t *UDPTransport) Send(from, to topology.NodeID, frame []byte) error {
	dst, ok := t.book[to]
	if !ok {
		return fmt.Errorf("live: node %d not in address book", to)
	}
	t.mu.Lock()
	conn := t.conns[from]
	if conn == nil {
		conn = t.sender
	}
	closed := t.closed
	t.mu.Unlock()
	if closed || conn == nil {
		return fmt.Errorf("live: send on closed transport")
	}
	_, err := conn.WriteToUDP(frame, dst)
	return err
}

// Close shuts every socket and waits for the read loops.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*net.UDPConn, 0, len(t.conns)+1)
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	if t.sender != nil {
		conns = append(conns, t.sender)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
