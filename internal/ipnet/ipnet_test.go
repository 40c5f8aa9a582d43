package ipnet

import (
	"testing"
	"testing/quick"
)

func TestParseAddrRoundTrip(t *testing.T) {
	tests := []string{"0.0.0.0", "10.1.2.3", "192.168.0.1", "255.255.255.255", "8.8.8.8"}
	for _, s := range tests {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "not-an-ip", "1.2.3", "::1", "256.1.1.1"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) must fail", s)
		}
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseAddr on bad input must panic")
		}
	}()
	MustParseAddr("nope")
}

func TestSlash24(t *testing.T) {
	a := MustParseAddr("172.16.5.77")
	if got := a.Slash24().String(); got != "172.16.5.0" {
		t.Errorf("Slash24 = %s", got)
	}
	// Property: any two addresses in the same /24 agree.
	f := func(raw uint32, h1, h2 uint8) bool {
		base := Addr(raw &^ 0xff)
		return (base + Addr(h1)).Slash24() == (base + Addr(h2)).Slash24()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.20.30.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.20.30.0/24" {
		t.Errorf("String = %s", p.String())
	}
	if p.Size() != 256 {
		t.Errorf("Size = %d", p.Size())
	}
	if !p.Contains(MustParseAddr("10.20.30.255")) {
		t.Error("must contain broadcast address of its own block")
	}
	if p.Contains(MustParseAddr("10.20.31.0")) {
		t.Error("must not contain neighbour block")
	}
}

func TestParsePrefixNormalizesHostBits(t *testing.T) {
	p, err := ParsePrefix("10.20.30.77/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.Base.String() != "10.20.30.0" {
		t.Errorf("Base = %s, want host bits cleared", p.Base)
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"", "10.0.0.0", "10.0.0.0/33", "::/64", "bogus/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) must fail", s)
		}
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/30")
	a, err := p.Nth(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "192.0.2.3" {
		t.Errorf("Nth(3) = %s", a)
	}
	if _, err := p.Nth(4); err == nil {
		t.Error("Nth(4) of a /30 must fail")
	}
	if _, err := p.Nth(-1); err == nil {
		t.Error("Nth(-1) must fail")
	}
}

func TestPrefixSizeEdges(t *testing.T) {
	if MustParsePrefix("1.2.3.4/32").Size() != 1 {
		t.Error("/32 size must be 1")
	}
	if MustParsePrefix("128.0.0.0/1").Size() != 1<<31 {
		t.Error("/1 size wrong")
	}
}

func TestAllocatorSequence(t *testing.T) {
	al := NewAllocator(MustParsePrefix("10.0.0.0/29"))
	var got []string
	for i := 0; i < 7; i++ {
		a, err := al.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		got = append(got, a.String())
	}
	if got[0] != "10.0.0.1" || got[6] != "10.0.0.7" {
		t.Errorf("allocation order wrong: %v", got)
	}
	if al.Allocated() != 7 {
		t.Errorf("Allocated = %d", al.Allocated())
	}
	if _, err := al.Next(); err == nil {
		t.Error("allocator must exhaust after size-1 addresses")
	}
}

func TestAllocatorPrefix(t *testing.T) {
	p := MustParsePrefix("10.9.0.0/16")
	if NewAllocator(p).Prefix() != p {
		t.Error("Prefix accessor wrong")
	}
}

func TestAddrOrderingWithinPrefix(t *testing.T) {
	// Allocations from the same /24 must share the /24.
	al := NewAllocator(MustParsePrefix("203.0.113.0/24"))
	first, _ := al.Next()
	for i := 0; i < 100; i++ {
		a, err := al.Next()
		if err != nil {
			t.Fatal(err)
		}
		if a.Slash24() != first.Slash24() {
			t.Fatalf("address %s escaped the /24", a)
		}
	}
}

// TestAppendToMatchesString pins AppendTo to String byte for byte: at
// every digit-count boundary of an octet (0, 9, 10, 99, 100, 255) in
// every position, then over a random sweep, and always appending
// after existing bytes.
func TestAppendToMatchesString(t *testing.T) {
	octets := []uint32{0, 9, 10, 99, 100, 255}
	check := func(a Addr) bool {
		got := string(a.AppendTo([]byte("x\t")))
		if want := "x\t" + a.String(); got != want {
			t.Errorf("AppendTo(%08x) = %q, want %q", uint32(a), got, want)
			return false
		}
		return true
	}
	for _, o0 := range octets {
		for _, o1 := range octets {
			for _, o2 := range octets {
				for _, o3 := range octets {
					check(Addr(o0<<24 | o1<<16 | o2<<8 | o3))
				}
			}
		}
	}
	if err := quick.Check(func(raw uint32) bool { return check(Addr(raw)) }, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}
