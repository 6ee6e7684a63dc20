package addr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/testseed"
)

func TestAddrClassification(t *testing.T) {
	cases := []struct {
		in        string
		unicast   bool
		multicast bool
	}{
		{"0.0.0.0", false, false},
		{"10.0.0.1", true, false},
		{"192.168.1.1", true, false},
		{"223.255.255.255", true, false},
		{"224.0.0.0", false, true},
		{"224.0.0.1", false, true},
		{"239.255.255.255", false, true},
		{"240.0.0.0", true, false}, // class E: not class-D, usable as unicast here
		{"255.255.255.255", true, false},
	}
	for _, c := range cases {
		a := MustParse(c.in)
		if got := a.IsUnicast(); got != c.unicast {
			t.Errorf("%s IsUnicast = %v, want %v", c.in, got, c.unicast)
		}
		if got := a.IsMulticast(); got != c.multicast {
			t.Errorf("%s IsMulticast = %v, want %v", c.in, got, c.multicast)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Every address must render and re-parse to itself.
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := Parse(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, s := range []string{
		"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0",
		"a.b.c.d", "1..2.3", "1.2.3.4 ", " 1.2.3.4",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestOctets(t *testing.T) {
	a := FromOctets(10, 1, 2, 3)
	b0, b1, b2, b3 := a.Octets()
	if b0 != 10 || b1 != 1 || b2 != 2 || b3 != 3 {
		t.Errorf("Octets = %d.%d.%d.%d, want 10.1.2.3", b0, b1, b2, b3)
	}
	if a.String() != "10.1.2.3" {
		t.Errorf("String = %q", a.String())
	}
}

func TestConventionalAddresses(t *testing.T) {
	if got := RouterAddr(0); got != MustParse("10.0.0.0") {
		t.Errorf("RouterAddr(0) = %v", got)
	}
	if got := RouterAddr(300); got != MustParse("10.0.1.44") {
		t.Errorf("RouterAddr(300) = %v", got)
	}
	if got := ReceiverAddr(5); got != MustParse("10.1.0.5") {
		t.Errorf("ReceiverAddr(5) = %v", got)
	}
	if got := GroupAddr(0); got != MustParse("224.0.0.1") {
		t.Errorf("GroupAddr(0) = %v", got)
	}
	if !GroupAddr(12345).IsMulticast() {
		t.Error("GroupAddr(12345) not multicast")
	}
	// Router and receiver addresses never collide for sane indices.
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		for _, a := range []Addr{RouterAddr(i), ReceiverAddr(i)} {
			if seen[a] {
				t.Fatalf("address collision at index %d: %v", i, a)
			}
			seen[a] = true
			if !a.IsUnicast() {
				t.Fatalf("conventional address %v not unicast", a)
			}
		}
	}
}

func TestChannel(t *testing.T) {
	s := MustParse("10.0.0.1")
	g := MustParse("224.1.2.3")
	ch, err := NewChannel(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Valid() {
		t.Error("valid channel reported invalid")
	}
	if ch.String() != "<10.0.0.1,224.1.2.3>" {
		t.Errorf("String = %q", ch.String())
	}
	if _, err := NewChannel(g, g); err == nil {
		t.Error("multicast source accepted")
	}
	if _, err := NewChannel(s, s); err == nil {
		t.Error("unicast group accepted")
	}
	if _, err := NewChannel(Unspecified, g); err == nil {
		t.Error("zero source accepted")
	}
	if (Channel{}).Valid() {
		t.Error("zero channel reported valid")
	}
}

func TestChannelAsMapKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := make(map[Channel]int)
	var keys []Channel
	for i := 0; i < 100; i++ {
		ch := Channel{S: Addr(rng.Uint32()%0xE0000000 + 1), G: GroupAddr(i)}
		m[ch] = i
		keys = append(keys, ch)
	}
	for i, k := range keys {
		if m[k] != i {
			t.Fatalf("map lookup of %v = %d, want %d", k, m[k], i)
		}
	}
}
