package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hbh/internal/addr"
	"hbh/internal/testseed"
)

func hdr(p Protocol, t Type, flags uint8) Header {
	return Header{
		Proto: p, Type: t, Flags: flags,
		Channel: addr.Channel{S: addr.MustParse("10.0.0.1"), G: addr.MustParse("224.0.0.1")},
		Src:     addr.MustParse("10.0.0.2"),
		Dst:     addr.MustParse("10.0.0.3"),
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	out, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return out
}

func TestJoinRoundTrip(t *testing.T) {
	in := &Join{Header: hdr(ProtoHBH, TypeJoin, FlagFirst), R: addr.MustParse("10.1.0.9")}
	out := roundTrip(t, in).(*Join)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	if !out.First() {
		t.Error("First flag lost")
	}
}

func TestTreeRoundTrip(t *testing.T) {
	in := &Tree{Header: hdr(ProtoREUNITE, TypeTree, FlagMarked), R: addr.MustParse("10.1.0.4")}
	out := roundTrip(t, in).(*Tree)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	if !out.Marked() {
		t.Error("Marked flag lost")
	}
}

func TestFusionRoundTrip(t *testing.T) {
	in := &Fusion{
		Header: hdr(ProtoHBH, TypeFusion, 0),
		Bp:     addr.MustParse("10.0.0.7"),
		Rs: []addr.Addr{
			addr.MustParse("10.1.0.1"),
			addr.MustParse("10.1.0.2"),
			addr.MustParse("10.1.0.3"),
		},
	}
	out := roundTrip(t, in).(*Fusion)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestFusionEmptyTargets(t *testing.T) {
	in := &Fusion{Header: hdr(ProtoHBH, TypeFusion, 0), Bp: addr.MustParse("10.0.0.7")}
	out := roundTrip(t, in).(*Fusion)
	if len(out.Rs) != 0 {
		t.Errorf("Rs = %v, want empty", out.Rs)
	}
}

func TestDataRoundTrip(t *testing.T) {
	in := &Data{Header: hdr(ProtoNone, TypeData, 0), Seq: 12345, Payload: []byte("hello multicast")}
	out := roundTrip(t, in).(*Data)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestDataEmptyPayload(t *testing.T) {
	in := &Data{Header: hdr(ProtoNone, TypeData, 0), Seq: 0}
	out := roundTrip(t, in).(*Data)
	if out.Seq != 0 || len(out.Payload) != 0 {
		t.Errorf("got %+v", out)
	}
}

// TestQuickFusion is a property test: any generated fusion survives a
// marshal/unmarshal round trip bit-exactly.
func TestQuickFusion(t *testing.T) {
	f := func(s, g, src, dst, bp uint32, targets []uint32, flags uint8) bool {
		in := &Fusion{
			Header: Header{
				Proto: ProtoHBH, Type: TypeFusion, Flags: flags,
				Channel: addr.Channel{S: addr.Addr(s), G: addr.Addr(g)},
				Src:     addr.Addr(src), Dst: addr.Addr(dst),
			},
			Bp: addr.Addr(bp),
		}
		if len(targets) > 1000 {
			targets = targets[:1000]
		}
		for _, x := range targets {
			in.Rs = append(in.Rs, addr.Addr(x))
		}
		buf, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

// TestQuickData: any payload round-trips.
func TestQuickData(t *testing.T) {
	f := func(seq uint32, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		in := &Data{Header: hdr(ProtoNone, TypeData, 0), Seq: seq, Payload: payload}
		buf, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return out.(*Data).Seq == seq && bytes.Equal(out.(*Data).Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	in := &Data{Header: hdr(ProtoNone, TypeData, 0), Seq: 7, Payload: []byte("payload")}
	buf, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	detected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		corrupt := append([]byte(nil), buf...)
		pos := rng.Intn(len(corrupt))
		bit := byte(1 << rng.Intn(8))
		corrupt[pos] ^= bit
		if _, err := Unmarshal(corrupt); err != nil {
			detected++
		}
	}
	// Single-bit flips are always caught by a one's-complement sum
	// (except flips inside the length field may instead produce
	// truncation errors — also detections).
	if detected != trials {
		t.Errorf("detected %d/%d single-bit corruptions", detected, trials)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid, err := Marshal(&Join{Header: hdr(ProtoHBH, TypeJoin, 0), R: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(valid[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer: err = %v, want ErrTruncated", err)
	}

	badVer := append([]byte(nil), valid...)
	badVer[0] = 99
	if _, err := Unmarshal(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}

	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil buffer: err = %v, want ErrTruncated", err)
	}

	// A bad type with a fixed-up checksum must be rejected as bad type.
	badType := append([]byte(nil), valid...)
	badType[2] = 99
	// Recompute checksum so the type error is reached.
	badType[22], badType[23] = 0, 0
	cs := checksum(badType)
	badType[22], badType[23] = byte(cs>>8), byte(cs)
	if _, err := Unmarshal(badType); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: err = %v, want ErrBadType", err)
	}

	if _, err := Marshal(&Join{}); !errors.Is(err, ErrBadType) {
		t.Errorf("marshal zero header: err = %v, want ErrBadType", err)
	}
}

func TestTrailingBytesIgnored(t *testing.T) {
	// Unmarshal reads exactly one message; trailing bytes (e.g. link
	// padding) must not break decoding.
	valid, err := Marshal(&Tree{Header: hdr(ProtoHBH, TypeTree, 0), R: 5})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(append([]byte(nil), valid...), 0xAA, 0xBB)
	if _, err := Unmarshal(padded); err != nil {
		t.Errorf("padded packet rejected: %v", err)
	}
}

func TestClone(t *testing.T) {
	f := &Fusion{Header: hdr(ProtoHBH, TypeFusion, 0), Bp: 9, Rs: []addr.Addr{1, 2}}
	c := Clone(f).(*Fusion)
	c.Rs[0] = 99
	c.Dst = 42
	if f.Rs[0] == 99 {
		t.Error("Clone shares Rs backing array")
	}
	if f.Dst == 42 {
		t.Error("Clone shares header")
	}

	d := &Data{Header: hdr(ProtoNone, TypeData, 0), Seq: 1, Payload: []byte{1, 2, 3}}
	cd := Clone(d).(*Data)
	cd.Payload[0] = 99
	if d.Payload[0] == 99 {
		t.Error("Clone shares payload")
	}
}

func TestFormat(t *testing.T) {
	j := &Join{Header: hdr(ProtoHBH, TypeJoin, FlagFirst), R: addr.MustParse("10.1.0.9")}
	s := Format(j)
	for _, want := range []string{"join", "10.1.0.9", "[first]", "hbh"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format(join) = %q, missing %q", s, want)
		}
	}
	tr := &Tree{Header: hdr(ProtoREUNITE, TypeTree, FlagMarked), R: 5}
	if !strings.Contains(Format(tr), "[marked]") {
		t.Errorf("Format(tree) = %q, missing marked flag", Format(tr))
	}
}

func TestTypeAndProtocolStrings(t *testing.T) {
	if TypeJoin.String() != "join" || TypeData.String() != "data" {
		t.Error("Type.String broken")
	}
	if Type(77).String() == "" {
		t.Error("unknown type renders empty")
	}
	if ProtoHBH.String() != "hbh" || ProtoREUNITE.String() != "reunite" {
		t.Error("Protocol.String broken")
	}
}
