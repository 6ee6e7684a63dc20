package packet_test

import (
	"bytes"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/packet"
)

// TestInPlaceCodecMatchesWrappers is the differential test of the two
// entry points a runtime that reuses its buffers calls against the two
// everything else calls: over the FuzzRoundTrip corpus (real Tree and
// Fusion wire bytes) plus one packet of every other type, AppendMarshal
// into a dirty, reused buffer writes byte for byte what Marshal returns,
// behind whatever the buffer already held, and UnmarshalInto decodes
// field for field what Unmarshal does — the data packet into the
// caller's value, its payload aliasing the input, and a control message
// into the caller's Control, reused from one message to the next.
func TestInPlaceCodecMatchesWrappers(t *testing.T) {
	h := packet.Header{
		Channel: addr.Channel{S: addr.ReceiverAddr(0), G: addr.GroupAddr(3)},
		Src:     addr.RouterAddr(1), Dst: addr.RouterAddr(2),
	}
	with := func(ty packet.Type, p packet.Protocol, flags uint8) packet.Header {
		h := h
		h.Type, h.Proto, h.Flags = ty, p, flags
		return h
	}
	msgs := []packet.Message{
		&packet.Join{Header: with(packet.TypeJoin, packet.ProtoHBH, packet.FlagFirst), R: addr.ReceiverAddr(4)},
		&packet.Data{Header: with(packet.TypeData, packet.ProtoNone, 0), Seq: 1 << 31, Payload: []byte("an odd-length payload")},
		&packet.Data{Header: with(packet.TypeData, packet.ProtoNone, 0)},
		&packet.Query{Header: with(packet.TypeQuery, packet.ProtoNone, 0), General: true},
		&packet.Query{Header: with(packet.TypeQuery, packet.ProtoNone, 0)},
		&packet.Report{Header: with(packet.TypeReport, packet.ProtoNone, 0), Leave: true},
		&packet.Report{Header: with(packet.TypeReport, packet.ProtoNone, 0)},
	}
	for _, raw := range linkCorpus(t) {
		m, err := packet.Unmarshal(raw)
		if err != nil {
			t.Fatalf("corpus entry does not decode: %v", err)
		}
		msgs = append(msgs, m)
	}

	buf := bytes.Repeat([]byte{0xff}, 512) // dirty: every byte of a packet must be written
	var scratch packet.Data
	var ctl packet.Control
	for _, m := range msgs {
		want, err := packet.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("framing")
		buf = append(buf[:0], prefix...)
		buf, err = packet.AppendMarshal(buf, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:len(prefix)], prefix) || !bytes.Equal(buf[len(prefix):], want) {
			t.Errorf("%s: AppendMarshal wrote\n% x\nbehind the prefix, Marshal returns\n% x", packet.Format(m), buf[len(prefix):], want)
		}
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xff
		}

		owned, err := packet.Unmarshal(want)
		if err != nil {
			t.Fatal(err)
		}
		into, err := packet.UnmarshalInto(&scratch, &ctl, want)
		if err != nil {
			t.Fatal(err)
		}
		od, isData := owned.(*packet.Data)
		if !isData {
			// A reused fusion's empty Rs is empty, not nil: compare what
			// the messages say, not how their slices were made.
			again, err := packet.Marshal(into)
			if err != nil {
				t.Fatal(err)
			}
			if packet.Format(into) != packet.Format(owned) || !bytes.Equal(again, want) {
				t.Errorf("UnmarshalInto decoded %s, Unmarshal %s", packet.Format(into), packet.Format(owned))
			}
			if !inControl(into, &ctl) {
				switch owned.(type) {
				case *packet.Join, *packet.Tree, *packet.Fusion:
					t.Errorf("%s was decoded into %p, not into the caller's Control", packet.Format(into), into)
				}
			}
			continue
		}
		if into != packet.Message(&scratch) {
			t.Fatalf("a data packet was decoded into %p, not into the caller's value", into)
		}
		if scratch.Header != od.Header || scratch.Seq != od.Seq || !bytes.Equal(scratch.Payload, od.Payload) {
			t.Errorf("UnmarshalInto decoded %s, Unmarshal %s", packet.Format(into), packet.Format(owned))
		}
		if n := len(od.Payload); n > 0 {
			if &scratch.Payload[0] != &want[len(want)-n] {
				t.Error("UnmarshalInto copied the payload instead of aliasing the input")
			}
			if &od.Payload[0] == &want[len(want)-n] {
				t.Error("Unmarshal's payload aliases the input: the message does not own its storage")
			}
		}
	}

	// Errors leave the destination as it was.
	buf = append(buf[:0], "kept"...)
	if got, err := packet.AppendMarshal(buf, &packet.Join{}); err == nil || string(got) != "kept" {
		t.Errorf("AppendMarshal of a typeless message returned %q, %v", got, err)
	}
}

// inControl reports whether m is one of c's messages.
func inControl(m packet.Message, c *packet.Control) bool {
	switch m {
	case &c.Join, &c.Tree, &c.Fusion:
		return true
	}
	return false
}

// TestUnmarshalIntoZeroAlloc: decoding into storage the caller owns —
// a data packet into its Data, a join, tree or fusion into its Control
// — allocates nothing once the fusion's Rs has held the longest list.
func TestUnmarshalIntoZeroAlloc(t *testing.T) {
	h := packet.Header{
		Proto:   packet.ProtoHBH,
		Channel: addr.Channel{S: addr.ReceiverAddr(0), G: addr.GroupAddr(3)},
		Src:     addr.RouterAddr(1), Dst: addr.RouterAddr(2),
	}
	with := func(ty packet.Type) packet.Header {
		h := h
		h.Type = ty
		return h
	}
	long := make([]addr.Addr, 30)
	for i := range long {
		long[i] = addr.ReceiverAddr(i)
	}
	var frames [][]byte
	for _, m := range []packet.Message{
		&packet.Join{Header: with(packet.TypeJoin), R: addr.ReceiverAddr(4)},
		&packet.Tree{Header: with(packet.TypeTree), R: addr.ReceiverAddr(4)},
		&packet.Fusion{Header: with(packet.TypeFusion), Bp: addr.RouterAddr(1), Rs: long},
		&packet.Fusion{Header: with(packet.TypeFusion), Bp: addr.RouterAddr(1), Rs: long[:2]},
		&packet.Data{Header: with(packet.TypeData), Seq: 9, Payload: []byte("payload")},
	} {
		b, err := packet.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	var d packet.Data
	var c packet.Control
	if n := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			if _, err := packet.UnmarshalInto(&d, &c, f); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("decoding into caller storage allocates %v times per %d messages", n, len(frames))
	}
}
