// Package netaddr provides the address and CIDR prefix types used
// throughout the BGP benchmark. It is a small, allocation-free substrate:
// an Addr is a family-tagged 128-bit value (IPv4 occupies the top 32
// bits), a Prefix is an (address, length) pair stored masked, and both are
// comparable with ==, which keeps RIB and FIB data structures compact and
// usable as map keys for either family without boxing.
//
// Address bits are stored left-justified: bit 0 is the most significant
// bit of hi for both families. That one invariant makes every bit-level
// operation (Bit, Masked, CommonPrefixLen, the FIB engines' stride
// extraction) family-generic — the IPv4 fast path is the same code run
// over the top 32 bits.
package netaddr

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Family is an address family: IPv4 or IPv6. The zero value is IPv4, so
// zero-valued Addr and Prefix keep their historical IPv4 meaning.
type Family uint8

// The two supported address families.
const (
	FamilyV4 Family = 0
	FamilyV6 Family = 1
)

// Families lists both families in canonical (v4 first) order, the
// iteration order used wherever per-family state is walked.
var Families = [2]Family{FamilyV4, FamilyV6}

// Bits returns the address width of the family: 32 or 128.
func (f Family) Bits() int {
	if f == FamilyV6 {
		return 128
	}
	return 32
}

// AFI returns the IANA address-family identifier (RFC 4760): 1 for IPv4,
// 2 for IPv6.
func (f Family) AFI() uint16 {
	if f == FamilyV6 {
		return 2
	}
	return 1
}

// String names the family "v4" or "v6".
func (f Family) String() string {
	if f == FamilyV6 {
		return "v6"
	}
	return "v4"
}

// FamilyFromAFI maps an IANA AFI onto a Family, reporting whether the AFI
// is one of the two supported.
func FamilyFromAFI(afi uint16) (Family, bool) {
	switch afi {
	case 1:
		return FamilyV4, true
	case 2:
		return FamilyV6, true
	}
	return FamilyV4, false
}

// Addr is an IP address of either family. Bits are left-justified in
// (hi, lo): an IPv4 address occupies the top 32 bits of hi with lo zero.
// The zero value is IPv4 0.0.0.0. Addr is comparable with ==.
type Addr struct {
	hi, lo uint64
	fam    Family
}

// AddrFrom4 assembles an IPv4 Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return AddrFromV4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFromV4 builds an IPv4 Addr from its 32-bit host-byte-order value
// (the most significant byte is the first octet).
func AddrFromV4(v uint32) Addr {
	return Addr{hi: uint64(v) << 32}
}

// AddrFrom128 builds an IPv6 Addr from its two left-justified 64-bit
// halves.
func AddrFrom128(hi, lo uint64) Addr {
	return Addr{hi: hi, lo: lo, fam: FamilyV6}
}

// ZeroAddr returns the all-zeros address of the given family.
func ZeroAddr(f Family) Addr {
	return Addr{fam: f}
}

// AddrFrom16 builds an IPv6 Addr from its 16-byte big-endian form.
func AddrFrom16(b [16]byte) Addr {
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[8+i])
	}
	return AddrFrom128(hi, lo)
}

// AddrFromBytes reads a big-endian address: 4 bytes for IPv4, 16 for
// IPv6. It panics on any other length; callers are expected to have
// validated lengths (wire parsers validate before calling).
func AddrFromBytes(b []byte) Addr {
	switch len(b) {
	case 4:
		return AddrFrom4(b[0], b[1], b[2], b[3])
	case 16:
		var a [16]byte
		copy(a[:], b)
		return AddrFrom16(a)
	}
	panic(fmt.Sprintf("netaddr: AddrFromBytes on %d bytes (want 4 or 16)", len(b)))
}

// ParseAddr parses dotted-quad IPv4 ("192.0.2.1") or colon-grouped IPv6
// ("2001:db8::1") notation; any string containing a colon is parsed as
// IPv6.
func ParseAddr(s string) (Addr, error) {
	if strings.IndexByte(s, ':') >= 0 {
		return parseAddr6(s)
	}
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return Addr{}, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
	}
	var out uint32
	for _, p := range parts {
		if p == "" || (len(p) > 1 && p[0] == '0') {
			return Addr{}, fmt.Errorf("netaddr: invalid IPv4 octet %q in %q", p, s)
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return Addr{}, fmt.Errorf("netaddr: invalid IPv4 octet %q in %q", p, s)
		}
		out = out<<8 | uint32(v)
	}
	return AddrFromV4(out), nil
}

// parseAddr6 parses the hex-group IPv6 forms of RFC 4291 section 2.2
// (with at most one "::"); the embedded-IPv4 form is not supported.
func parseAddr6(s string) (Addr, error) {
	bad := func() (Addr, error) {
		return Addr{}, fmt.Errorf("netaddr: invalid IPv6 address %q", s)
	}
	var head, tail []uint16
	parseGroups := func(part string, dst *[]uint16) bool {
		if part == "" {
			return true
		}
		for _, g := range strings.Split(part, ":") {
			if g == "" || len(g) > 4 {
				return false
			}
			v, err := strconv.ParseUint(g, 16, 16)
			if err != nil {
				return false
			}
			*dst = append(*dst, uint16(v))
		}
		return true
	}
	if i := strings.Index(s, "::"); i >= 0 {
		if strings.Contains(s[i+2:], "::") {
			return bad()
		}
		if !parseGroups(s[:i], &head) || !parseGroups(s[i+2:], &tail) {
			return bad()
		}
		if len(head)+len(tail) > 7 {
			return bad()
		}
	} else {
		if !parseGroups(s, &head) || len(head) != 8 {
			return bad()
		}
	}
	var groups [8]uint16
	copy(groups[:], head)
	copy(groups[8-len(tail):], tail)
	var hi, lo uint64
	for i := 0; i < 4; i++ {
		hi = hi<<16 | uint64(groups[i])
		lo = lo<<16 | uint64(groups[4+i])
	}
	return AddrFrom128(hi, lo), nil
}

// MustParseAddr is ParseAddr for statically known inputs; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Family returns the address family.
func (a Addr) Family() Family { return a.fam }

// Is4 reports whether the address is IPv4.
func (a Addr) Is4() bool { return a.fam == FamilyV4 }

// Is6 reports whether the address is IPv6.
func (a Addr) Is6() bool { return a.fam == FamilyV6 }

// Bits returns the address width: 32 for IPv4, 128 for IPv6.
func (a Addr) Bits() int { return a.fam.Bits() }

// IsZero reports whether the address is the zero address of its family
// (0.0.0.0 or ::).
func (a Addr) IsZero() bool { return a.hi == 0 && a.lo == 0 }

// V4 returns the 32-bit host-byte-order value of an IPv4 address. It is
// the one escape hatch back to raw integer arithmetic, and the afifamily
// lint restricts its use outside this package to justified sites; prefer
// the family-generic accessors.
func (a Addr) V4() uint32 { return uint32(a.hi >> 32) }

// Hi returns the top 64 address bits (left-justified).
func (a Addr) Hi() uint64 { return a.hi }

// Lo returns the bottom 64 address bits (left-justified; always zero for
// IPv4).
func (a Addr) Lo() uint64 { return a.lo }

// Octets returns the four octets of an IPv4 address.
func (a Addr) Octets() (byte, byte, byte, byte) {
	v := a.V4()
	return byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)
}

// Bytes returns the big-endian representation: 4 bytes for IPv4, 16 for
// IPv6.
func (a Addr) Bytes() []byte {
	return a.AppendBytes(nil)
}

// AppendBytes appends the big-endian representation (4 or 16 bytes) to dst.
func (a Addr) AppendBytes(dst []byte) []byte {
	if a.Is4() {
		o1, o2, o3, o4 := a.Octets()
		return append(dst, o1, o2, o3, o4)
	}
	for i := 56; i >= 0; i -= 8 {
		dst = append(dst, byte(a.hi>>uint(i)))
	}
	for i := 56; i >= 0; i -= 8 {
		dst = append(dst, byte(a.lo>>uint(i)))
	}
	return dst
}

// String renders dotted-quad notation for IPv4 and RFC 5952 canonical
// form (lowercase hex, longest zero run compressed) for IPv6.
func (a Addr) String() string {
	if a.Is4() {
		o1, o2, o3, o4 := a.Octets()
		return fmt.Sprintf("%d.%d.%d.%d", o1, o2, o3, o4)
	}
	var groups [8]uint16
	for i := 0; i < 4; i++ {
		groups[i] = uint16(a.hi >> uint(48-16*i))
		groups[4+i] = uint16(a.lo >> uint(48-16*i))
	}
	// Longest run of zero groups, length >= 2, earliest wins (RFC 5952).
	runStart, runLen := -1, 0
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > runLen {
			runStart, runLen = i, j-i
		}
		i = j
	}
	if runLen < 2 {
		runStart = -1
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == runStart {
			sb.WriteString("::")
			i += runLen - 1
			continue
		}
		if i > 0 && !(runStart >= 0 && i == runStart+runLen) {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	return sb.String()
}

// Bit returns the i-th most significant bit (i in [0, Bits())).
func (a Addr) Bit(i int) int {
	if i < 64 {
		return int(a.hi>>(63-uint(i))) & 1
	}
	return int(a.lo>>(127-uint(i))) & 1
}

// SetBit returns the address with the i-th most significant bit set.
func (a Addr) SetBit(i int) Addr {
	if i < 64 {
		a.hi |= 1 << (63 - uint(i))
	} else {
		a.lo |= 1 << (127 - uint(i))
	}
	return a
}

// Masked returns the address with all bits past the first length cleared
// (the network address of the /length containing a). Lengths outside
// [0, Bits()] are clamped.
func (a Addr) Masked(length int) Addr {
	if length <= 0 {
		return Addr{fam: a.fam}
	}
	if length >= a.Bits() {
		return a
	}
	if length <= 64 {
		a.hi &= ^uint64(0) << (64 - uint(length))
		a.lo = 0
	} else {
		a.lo &= ^uint64(0) << (128 - uint(length))
	}
	return a
}

// CommonPrefixLen returns the number of leading bits a and b share, up to
// the family width. Addresses of different families share no bits.
func (a Addr) CommonPrefixLen(b Addr) int {
	if a.fam != b.fam {
		return 0
	}
	n := bits.LeadingZeros64(a.hi ^ b.hi)
	if n == 64 {
		n += bits.LeadingZeros64(a.lo ^ b.lo)
	}
	if max := a.Bits(); n > max {
		n = max
	}
	return n
}

// Compare orders addresses by family (IPv4 before IPv6), then
// numerically. It returns -1, 0, or +1.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.fam != b.fam:
		if a.fam < b.fam {
			return -1
		}
		return 1
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo != b.lo:
		if a.lo < b.lo {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports whether a orders before b (family first, then value).
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// ErrBadPrefix reports a syntactically or semantically invalid prefix.
var ErrBadPrefix = errors.New("netaddr: invalid prefix")

// Prefix is a CIDR prefix of either family. The address bits are stored
// already masked to the prefix length, beside one word packing family and
// length (fam<<8 | len), so Prefix values compare with == (and differ
// across families even at equal bit patterns). The three words leave no
// padding, so a Prefix map key is hashed and compared as 24 plain bytes.
// The zero value is the IPv4 default route 0.0.0.0/0.
type Prefix struct {
	hi, lo uint64
	meta   uint64 // fam<<8 | len
}

// PrefixFrom builds a prefix, masking the address to the given length.
// Lengths outside [0, a.Bits()] are clamped.
func PrefixFrom(a Addr, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if max := a.Bits(); length > max {
		length = max
	}
	m := a.Masked(length)
	return Prefix{hi: m.hi, lo: m.lo, meta: uint64(a.fam)<<8 | uint64(length)}
}

// ParsePrefix parses "addr/len" notation for either family.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: missing '/' in %q", ErrBadPrefix, s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %v", ErrBadPrefix, err)
	}
	l, err := strconv.Atoi(s[slash+1:])
	if err != nil || l < 0 || l > a.Bits() {
		return Prefix{}, fmt.Errorf("%w: bad length in %q", ErrBadPrefix, s)
	}
	return PrefixFrom(a, l), nil
}

// MustParsePrefix is ParsePrefix for statically known inputs; it panics on
// error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the (masked) network address.
func (p Prefix) Addr() Addr { return Addr{hi: p.hi, lo: p.lo, fam: p.Family()} }

// Len returns the prefix length in bits.
func (p Prefix) Len() int { return int(uint8(p.meta)) }

// Family returns the prefix's address family.
func (p Prefix) Family() Family { return Family(p.meta >> 8) }

// Bits returns the family address width: 32 or 128.
func (p Prefix) Bits() int { return p.Family().Bits() }

// Contains reports whether the address falls inside the prefix. An
// address of the other family never does.
func (p Prefix) Contains(a Addr) bool {
	return a.fam == p.Family() && a.Masked(p.Len()) == p.Addr()
}

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Len() <= q.Len() {
		return p.Contains(q.Addr())
	}
	return q.Contains(p.Addr())
}

// String renders "addr/len".
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr(), p.Len())
}

// Compare orders prefixes by family (IPv4 before IPv6), then by address,
// then by length. It returns -1, 0, or +1. This is the canonical ordering
// used by RIB iteration so that update streams are deterministic.
func (p Prefix) Compare(q Prefix) int {
	if c := cmp.Compare(p.meta>>8, q.meta>>8); c != 0 {
		return c
	}
	if c := cmp.Compare(p.hi, q.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(p.lo, q.lo); c != 0 {
		return c
	}
	return cmp.Compare(uint8(p.meta), uint8(q.meta))
}

// Sibling returns the prefix covering the adjacent half of the parent
// /(len-1): the same prefix with its last network bit flipped. The
// zero-length prefix is its own sibling.
func (p Prefix) Sibling() Prefix {
	i := p.Len() - 1
	switch {
	case i < 0:
	case i < 64:
		p.hi ^= 1 << (63 - uint(i))
	default:
		p.lo ^= 1 << (127 - uint(i))
	}
	return p
}

// Host returns an address inside the prefix whose host bits are filled
// from the low bits of rnd (up to 64 host bits; any beyond stay zero).
// It is the deterministic "random host within prefix" helper the lookup
// workload generators use.
func (p Prefix) Host(rnd uint64) Addr {
	a := p.Addr()
	host := p.Bits() - p.Len()
	if host <= 0 {
		return a
	}
	if host > 64 {
		host = 64
	}
	m := ^uint64(0)
	if host < 64 {
		m = 1<<uint(host) - 1
	}
	if a.Is4() {
		a.hi |= (rnd & m) << 32
	} else {
		a.lo |= rnd & m
	}
	return a
}

// WireLen returns the number of NLRI payload bytes needed to encode the
// prefix address ((len+7)/8), excluding the length octet itself.
func (p Prefix) WireLen() int {
	return (p.Len() + 7) / 8
}

// AppendWire appends the RFC 4271 NLRI encoding (length octet followed by
// the minimal number of address bytes) to dst. The same encoding carries
// IPv6 prefixes inside MP_REACH_NLRI/MP_UNREACH_NLRI (RFC 4760); the
// address family is identified by the surrounding attribute's AFI.
func (p Prefix) AppendWire(dst []byte) []byte {
	dst = append(dst, uint8(p.meta))
	n := p.WireLen()
	for i := 0; i < n; i++ {
		var b byte
		if i < 8 {
			b = byte(p.hi >> uint(56-8*i))
		} else {
			b = byte(p.lo >> uint(120-8*i))
		}
		dst = append(dst, b)
	}
	return dst
}

// PrefixFromWire decodes one IPv4 NLRI entry from b, returning the prefix
// and the number of bytes consumed.
func PrefixFromWire(b []byte) (Prefix, int, error) {
	return PrefixFromWireFamily(b, FamilyV4)
}

// PrefixFromWireFamily decodes one NLRI entry of the given family from b
// (RFC 4271 for IPv4, RFC 4760 MP NLRI for IPv6), returning the prefix
// and the number of bytes consumed.
func PrefixFromWireFamily(b []byte, f Family) (Prefix, int, error) {
	if len(b) < 1 {
		return Prefix{}, 0, fmt.Errorf("%w: empty NLRI", ErrBadPrefix)
	}
	l := int(b[0])
	if l > f.Bits() {
		return Prefix{}, 0, fmt.Errorf("%w: NLRI length %d > %d", ErrBadPrefix, l, f.Bits())
	}
	n := (l + 7) / 8
	if len(b) < 1+n {
		return Prefix{}, 0, fmt.Errorf("%w: truncated NLRI (need %d bytes, have %d)", ErrBadPrefix, 1+n, len(b))
	}
	var hi, lo uint64
	for i := 0; i < n; i++ {
		if i < 8 {
			hi |= uint64(b[1+i]) << uint(56-8*i)
		} else {
			lo |= uint64(b[1+i]) << uint(120-8*i)
		}
	}
	a := Addr{hi: hi, lo: lo, fam: f}
	return PrefixFrom(a, l), 1 + n, nil
}
