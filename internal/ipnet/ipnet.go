// Package ipnet provides the IPv4 addressing substrate for the
// simulated world: compact address values, prefix (CIDR) math, and
// sequential allocators that hand out server and client addresses from
// per-entity prefixes.
//
// The paper aggregates servers into data centers partly by /24 prefix
// (Section V: "all servers with IP addresses in the same /24 subnet are
// always aggregated to the same data center"), so /24 handling is a
// first-class operation here.
package ipnet

import (
	"fmt"
	"net/netip"
	"strconv"
)

// Addr is a compact IPv4 address. Using uint32 keeps flow records small
// and hashable; convert with ToNetip for display.
type Addr uint32

// MustParseAddr parses dotted-quad s, panicking on malformed input.
// Intended for static world definitions, not untrusted input.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddr parses a dotted-quad IPv4 string.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("ipnet: %w", err)
	}
	if !ip.Is4() {
		return 0, fmt.Errorf("ipnet: %q is not IPv4", s)
	}
	b := ip.As4()
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])), nil
}

// ToNetip converts to a netip.Addr.
func (a Addr) ToNetip() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// String renders the address as a dotted quad.
func (a Addr) String() string { return a.ToNetip().String() }

// AppendTo appends the dotted quad of String to b and returns the
// extended buffer — the allocation-free form for encoders that write
// one address per record.
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(a>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(a)), 10)
}

// Slash24 returns the /24 prefix containing a, expressed as the network
// address (host byte zeroed).
func (a Addr) Slash24() Addr { return a &^ 0xff }

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Base Addr
	Bits int // prefix length, 0..32
}

// MustParsePrefix parses "a.b.c.d/n", panicking on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/n".
func ParsePrefix(s string) (Prefix, error) {
	pp, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("ipnet: %w", err)
	}
	if !pp.Addr().Is4() {
		return Prefix{}, fmt.Errorf("ipnet: %q is not IPv4", s)
	}
	b := pp.Addr().As4()
	base := Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	p := Prefix{Base: base, Bits: pp.Bits()}
	return Prefix{Base: p.mask(base), Bits: pp.Bits()}, nil
}

func (p Prefix) maskBits() uint32 {
	if p.Bits <= 0 {
		return 0
	}
	if p.Bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - p.Bits)
}

func (p Prefix) mask(a Addr) Addr { return Addr(uint32(a) & p.maskBits()) }

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool { return p.mask(a) == p.Base }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() int {
	if p.Bits >= 32 {
		return 1
	}
	return 1 << (32 - p.Bits)
}

// Nth returns the i-th address in the prefix. It returns an error when
// i is out of range rather than silently bleeding into a neighbour
// block, which would corrupt AS attribution in the simulator.
func (p Prefix) Nth(i int) (Addr, error) {
	if i < 0 || i >= p.Size() {
		return 0, fmt.Errorf("ipnet: index %d out of range for %s (size %d)", i, p, p.Size())
	}
	return p.Base + Addr(i), nil
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Base, p.Bits) }

// Allocator hands out sequential addresses from a prefix. The zero
// value is not usable; construct with NewAllocator.
type Allocator struct {
	prefix Prefix
	next   int
}

// NewAllocator returns an allocator over p starting at the first host
// offset (the network address itself is skipped, mirroring real
// deployments).
func NewAllocator(p Prefix) *Allocator {
	return &Allocator{prefix: p, next: 1}
}

// Next allocates the next unused address, or an error if p is
// exhausted.
func (al *Allocator) Next() (Addr, error) {
	a, err := al.prefix.Nth(al.next)
	if err != nil {
		return 0, fmt.Errorf("ipnet: prefix %s exhausted after %d allocations", al.prefix, al.next-1)
	}
	al.next++
	return a, nil
}

// Allocated returns how many addresses have been handed out.
func (al *Allocator) Allocated() int { return al.next - 1 }

// Prefix returns the block this allocator draws from.
func (al *Allocator) Prefix() Prefix { return al.prefix }
