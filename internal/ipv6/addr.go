// Package ipv6 implements the slice of IPv6 addressing the protocol needs:
// 128-bit addresses, RFC 5952 text formatting, parsing, the site-local
// prefix used by the paper (fec0::/10), and the reserved site-local DNS
// server addresses from draft-ietf-ipv6-dns-discovery.
//
// The package is self-contained (no dependency on net/netip) so that the
// address layout of the paper's Figure 1 — 10-bit site-local prefix, 38 zero
// bits, 16-bit subnet ID, 64-bit cryptographic interface ID — can be
// manipulated and tested directly.
package ipv6

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Addr is a 128-bit IPv6 address in network byte order.
type Addr [16]byte

// Unspecified is the all-zeros address "::".
var Unspecified Addr

// AllNodes is the link-local all-nodes multicast group ff02::1, used as the
// destination of flooded protocol messages.
var AllNodes = Addr{0: 0xff, 1: 0x02, 15: 0x01}

// Reserved site-local DNS server anycast addresses
// (fec0:0:0:ffff::1 through ::3, draft-ietf-ipv6-dns-discovery).
var (
	DNS1 = MustParse("fec0:0:0:ffff::1")
	DNS2 = MustParse("fec0:0:0:ffff::2")
	DNS3 = MustParse("fec0:0:0:ffff::3")
)

// IsUnspecified reports whether a is "::".
func (a Addr) IsUnspecified() bool { return a == Unspecified }

// IsMulticast reports whether a is in ff00::/8.
func (a Addr) IsMulticast() bool { return a[0] == 0xff }

// IsSiteLocal reports whether a is in fec0::/10, the deprecated site-local
// space the paper assigns to MANET hosts.
func (a Addr) IsSiteLocal() bool {
	return a[0] == 0xfe && a[1]&0xc0 == 0xc0
}

// InterfaceID returns the low 64 bits of the address — the H(PK, rn) field
// of the paper's Figure 1.
func (a Addr) InterfaceID() uint64 {
	return binary.BigEndian.Uint64(a[8:])
}

// SubnetID returns bits 48..63 — the 16-bit subnet ID field of Figure 1,
// which the paper fixes to zero inside a MANET.
func (a Addr) SubnetID() uint16 {
	return binary.BigEndian.Uint16(a[6:8])
}

// SiteLocal builds the paper's MANET address layout: fec0::/10 prefix,
// 38 zero bits, the given subnet ID, and the 64-bit interface ID.
func SiteLocal(subnet uint16, iid uint64) Addr {
	var a Addr
	a[0] = 0xfe
	a[1] = 0xc0
	binary.BigEndian.PutUint16(a[6:8], subnet)
	binary.BigEndian.PutUint64(a[8:], iid)
	return a
}

// WithInterfaceID returns a copy of a with the low 64 bits replaced.
func (a Addr) WithInterfaceID(iid uint64) Addr {
	binary.BigEndian.PutUint64(a[8:], iid)
	return a
}

// Groups returns the eight 16-bit groups of the address.
func (a Addr) Groups() [8]uint16 {
	var g [8]uint16
	for i := 0; i < 8; i++ {
		g[i] = binary.BigEndian.Uint16(a[2*i : 2*i+2])
	}
	return g
}

// FromGroups assembles an address from eight 16-bit groups.
func FromGroups(g [8]uint16) Addr {
	var a Addr
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint16(a[2*i:2*i+2], g[i])
	}
	return a
}

// String renders the address in RFC 5952 canonical form: lowercase hex,
// leading zeros dropped, and the single longest run of two or more zero
// groups (leftmost on ties) compressed to "::".
func (a Addr) String() string {
	g := a.Groups()

	// Find the longest run of zero groups with length >= 2.
	bestStart, bestLen := -1, 0
	runStart, runLen := -1, 0
	for i := 0; i <= 8; i++ {
		if i < 8 && g[i] == 0 {
			if runStart < 0 {
				runStart = i
			}
			runLen++
			continue
		}
		if runLen > bestLen {
			bestStart, bestLen = runStart, runLen
		}
		runStart, runLen = -1, 0
	}
	if bestLen < 2 {
		bestStart = -1
	}

	var b strings.Builder
	b.Grow(41)
	afterCompress := false
	for i := 0; i < 8; {
		if i == bestStart {
			b.WriteString("::")
			i += bestLen
			afterCompress = true
			continue
		}
		if b.Len() > 0 && !afterCompress {
			b.WriteByte(':')
		}
		afterCompress = false
		fmt.Fprintf(&b, "%x", g[i])
		i++
	}
	if b.Len() == 0 {
		return "::"
	}
	return b.String()
}

var errSyntax = errors.New("ipv6: invalid address syntax")

// Parse parses an IPv6 address in the standard colon-hex notation with
// optional "::" compression. IPv4-mapped dotted suffixes are not supported;
// the protocol never uses them.
func Parse(s string) (Addr, error) {
	var a Addr
	if s == "" {
		return a, errSyntax
	}
	if s == "::" {
		return a, nil
	}

	// Split on the at-most-one "::".
	var head, tail string
	if i := strings.Index(s, "::"); i >= 0 {
		head, tail = s[:i], s[i+2:]
		if strings.Contains(tail, "::") {
			return a, errSyntax
		}
	} else {
		head, tail = s, ""
	}

	parseGroups := func(part string) ([]uint16, error) {
		if part == "" {
			return nil, nil
		}
		fields := strings.Split(part, ":")
		out := make([]uint16, 0, len(fields))
		for _, f := range fields {
			if len(f) == 0 || len(f) > 4 {
				return nil, errSyntax
			}
			var v uint32
			for _, c := range f {
				var d uint32
				switch {
				case c >= '0' && c <= '9':
					d = uint32(c - '0')
				case c >= 'a' && c <= 'f':
					d = uint32(c-'a') + 10
				case c >= 'A' && c <= 'F':
					d = uint32(c-'A') + 10
				default:
					return nil, errSyntax
				}
				v = v<<4 | d
			}
			out = append(out, uint16(v))
		}
		return out, nil
	}

	hg, err := parseGroups(head)
	if err != nil {
		return a, err
	}
	tg, err := parseGroups(tail)
	if err != nil {
		return a, err
	}

	hasCompress := strings.Contains(s, "::")
	total := len(hg) + len(tg)
	switch {
	case hasCompress && total > 7:
		return a, errSyntax
	case !hasCompress && total != 8:
		return a, errSyntax
	}

	var g [8]uint16
	copy(g[:], hg)
	copy(g[8-len(tg):], tg)
	return FromGroups(g), nil
}

// MustParse is Parse that panics on malformed input; for package-level
// constants and tests.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(fmt.Sprintf("ipv6.MustParse(%q): %v", s, err))
	}
	return a
}

// Compare orders addresses lexicographically (network byte order); it
// returns -1, 0, or 1.
func Compare(a, b Addr) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Prefix is an address prefix of a given bit length, used for masking
// checks such as fec0::/10.
type Prefix struct {
	Addr Addr
	Bits int
}

// SiteLocalPrefix is fec0::/10 from the paper's Figure 1.
var SiteLocalPrefix = Prefix{Addr: Addr{0: 0xfe, 1: 0xc0}, Bits: 10}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr Addr) bool {
	bits := p.Bits
	if bits < 0 || bits > 128 {
		return false
	}
	for i := 0; i < 16 && bits > 0; i++ {
		take := bits
		if take > 8 {
			take = 8
		}
		mask := byte(0xff << (8 - take))
		if addr[i]&mask != p.Addr[i]&mask {
			return false
		}
		bits -= take
	}
	return true
}

// String renders the prefix in CIDR form.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }
