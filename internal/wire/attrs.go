package wire

import (
	"fmt"
	"sort"
	"strings"

	"bgpbench/internal/netaddr"
)

// Community is an RFC 1997 community value, conventionally written
// "asn:value".
type Community uint32

// String renders the conventional "asn:value" form.
func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xFFFF)
}

// CommunityFrom builds a community from its AS and value halves.
func CommunityFrom(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// Aggregator is the AGGREGATOR attribute value: the AS and router that
// formed an aggregate route. The AS is 4-octet; on a 2-octet session the
// wire carries AS_TRANS plus an AS4_AGGREGATOR attribute (RFC 6793).
type Aggregator struct {
	AS   uint32
	Addr netaddr.Addr
}

// RawAttr preserves an optional transitive attribute this implementation
// does not interpret, so it can be forwarded unchanged (RFC 4271 sec 5).
type RawAttr struct {
	Flags byte
	Type  AttrType
	Value []byte
}

// PathAttrs is the parsed path attribute block of an UPDATE message. The
// zero value has no attributes set; HasMED/HasLocalPref discriminate unset
// optional attributes from zero-valued ones.
//
// NextHop may be IPv4 or IPv6. An IPv4 next hop encodes as the classic
// NEXT_HOP attribute; an IPv6 next hop travels inside MP_REACH_NLRI
// (RFC 4760), which the canonical encoding emits with an empty NLRI block
// so that equal attribute sets keep identical canonical bytes regardless
// of which prefixes they are attached to.
type PathAttrs struct {
	Origin          Origin
	HasOrigin       bool
	ASPath          ASPath
	NextHop         netaddr.Addr
	HasNextHop      bool
	MED             uint32
	HasMED          bool
	LocalPref       uint32
	HasLocalPref    bool
	AtomicAggregate bool
	Aggregator      *Aggregator
	Communities     []Community
	Unknown         []RawAttr
}

// NewPathAttrs builds the minimal well-formed attribute set for an
// announcement: ORIGIN, AS_PATH, and NEXT_HOP.
func NewPathAttrs(origin Origin, path ASPath, nextHop netaddr.Addr) PathAttrs {
	return PathAttrs{
		Origin:     origin,
		HasOrigin:  true,
		ASPath:     path,
		NextHop:    nextHop,
		HasNextHop: true,
	}
}

// Clone deep-copies the attribute set.
func (a PathAttrs) Clone() PathAttrs {
	out := a
	out.ASPath = a.ASPath.Clone()
	if a.Aggregator != nil {
		agg := *a.Aggregator
		out.Aggregator = &agg
	}
	out.Communities = append([]Community(nil), a.Communities...)
	if a.Unknown != nil {
		out.Unknown = make([]RawAttr, len(a.Unknown))
		for i, u := range a.Unknown {
			out.Unknown[i] = RawAttr{Flags: u.Flags, Type: u.Type, Value: append([]byte(nil), u.Value...)}
		}
	}
	return out
}

// Equal reports semantic equality of two attribute sets (unknown attributes
// compare by exact bytes).
func (a PathAttrs) Equal(b PathAttrs) bool {
	if a.HasOrigin != b.HasOrigin || (a.HasOrigin && a.Origin != b.Origin) {
		return false
	}
	if !a.ASPath.Equal(b.ASPath) {
		return false
	}
	if a.HasNextHop != b.HasNextHop || (a.HasNextHop && a.NextHop != b.NextHop) {
		return false
	}
	if a.HasMED != b.HasMED || (a.HasMED && a.MED != b.MED) {
		return false
	}
	if a.HasLocalPref != b.HasLocalPref || (a.HasLocalPref && a.LocalPref != b.LocalPref) {
		return false
	}
	if a.AtomicAggregate != b.AtomicAggregate {
		return false
	}
	if (a.Aggregator == nil) != (b.Aggregator == nil) {
		return false
	}
	if a.Aggregator != nil && *a.Aggregator != *b.Aggregator {
		return false
	}
	if len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	if len(a.Unknown) != len(b.Unknown) {
		return false
	}
	for i := range a.Unknown {
		u, v := a.Unknown[i], b.Unknown[i]
		if u.Flags != v.Flags || u.Type != v.Type || string(u.Value) != string(v.Value) {
			return false
		}
	}
	return true
}

// HasCommunity reports whether the set carries the given community.
func (a PathAttrs) HasCommunity(c Community) bool {
	for _, x := range a.Communities {
		if x == c {
			return true
		}
	}
	return false
}

// String summarizes the attributes for logs.
func (a PathAttrs) String() string {
	var parts []string
	if a.HasOrigin {
		parts = append(parts, "origin="+a.Origin.String())
	}
	parts = append(parts, "as-path=["+a.ASPath.String()+"]")
	if a.HasNextHop {
		parts = append(parts, "next-hop="+a.NextHop.String())
	}
	if a.HasMED {
		parts = append(parts, fmt.Sprintf("med=%d", a.MED))
	}
	if a.HasLocalPref {
		parts = append(parts, fmt.Sprintf("local-pref=%d", a.LocalPref))
	}
	if len(a.Communities) > 0 {
		cs := make([]string, len(a.Communities))
		for i, c := range a.Communities {
			cs[i] = c.String()
		}
		parts = append(parts, "communities="+strings.Join(cs, ","))
	}
	return strings.Join(parts, " ")
}

// MarshalAttrs renders the canonical path-attribute block encoding of a.
// Equal attribute sets produce identical bytes, so the result doubles as
// a grouping key when coalescing routes into shared UPDATE messages. The
// canonical form is 2-octet-AS (AS_TRANS + AS4_PATH when a 4-byte ASN is
// present), which keeps it byte-identical to the historical encoding for
// any attribute set expressible before RFC 6793 support.
func MarshalAttrs(a PathAttrs) []byte {
	return a.appendWireMode(nil, false, nil, nil)
}

// UnmarshalAttrs decodes a path-attribute block (the inverse of
// MarshalAttrs). MRT table dumps store attribute blocks in this format.
func UnmarshalAttrs(b []byte) (PathAttrs, error) {
	a, mp, err := parseAttrsMode(b, false, nil)
	if err != nil {
		return a, err
	}
	if !a.HasNextHop && mp.hasNextHop {
		a.NextHop, a.HasNextHop = mp.nextHop, true
	}
	return a, nil
}

func appendAttrHeader(dst []byte, flags byte, typ AttrType, valLen int) []byte {
	if valLen > 255 {
		flags |= FlagExtLen
		return append(dst, flags, byte(typ), byte(valLen>>8), byte(valLen))
	}
	return append(dst, flags, byte(typ), byte(valLen))
}

// appendWireMode appends the full path attribute block. Attributes are
// emitted in ascending type-code order, which keeps encodings canonical
// and deterministic. In 2-octet mode (as4 false) AS_PATH carries AS_TRANS
// substitutions and the true path follows in AS4_PATH when needed. mpNLRI
// and mpWithdrawn are the non-IPv4 prefixes to fold into MP_REACH_NLRI and
// MP_UNREACH_NLRI (RFC 4760); both may be nil.
func (a PathAttrs) appendWireMode(dst []byte, as4 bool, mpNLRI, mpWithdrawn []netaddr.Prefix) []byte {
	if a.HasOrigin {
		dst = appendAttrHeader(dst, FlagTransitive, AttrOrigin, 1)
		dst = append(dst, byte(a.Origin))
	}
	// AS_PATH is always emitted (possibly empty) when any attribute is
	// present: it is mandatory for announcements.
	pl := a.ASPath.wireLen(as4)
	dst = appendAttrHeader(dst, FlagTransitive, AttrASPath, pl)
	dst = a.ASPath.appendWire(dst, as4)
	if a.HasNextHop && a.NextHop.Is4() {
		dst = appendAttrHeader(dst, FlagTransitive, AttrNextHop, 4)
		dst = a.NextHop.AppendBytes(dst)
	}
	if a.HasMED {
		dst = appendAttrHeader(dst, FlagOptional, AttrMED, 4)
		dst = append(dst, byte(a.MED>>24), byte(a.MED>>16), byte(a.MED>>8), byte(a.MED))
	}
	if a.HasLocalPref {
		dst = appendAttrHeader(dst, FlagTransitive, AttrLocalPref, 4)
		dst = append(dst, byte(a.LocalPref>>24), byte(a.LocalPref>>16), byte(a.LocalPref>>8), byte(a.LocalPref))
	}
	if a.AtomicAggregate {
		dst = appendAttrHeader(dst, FlagTransitive, AttrAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		if as4 {
			dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrAggregator, 8)
			as := a.Aggregator.AS
			dst = append(dst, byte(as>>24), byte(as>>16), byte(as>>8), byte(as))
		} else {
			as := a.Aggregator.AS
			if as > 0xFFFF {
				as = ASTrans
			}
			dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrAggregator, 6)
			dst = append(dst, byte(as>>8), byte(as))
		}
		dst = a.Aggregator.Addr.AppendBytes(dst)
	}
	if len(a.Communities) > 0 {
		cs := append([]Community(nil), a.Communities...)
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrCommunities, 4*len(cs))
		for _, c := range cs {
			dst = append(dst, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
	}
	// MP_REACH_NLRI: required whenever the next hop is IPv6 (there is no
	// classic encoding for it) or non-IPv4 NLRI must be announced.
	if (a.HasNextHop && a.NextHop.Is6()) || len(mpNLRI) > 0 {
		dst = a.appendMPReach(dst, mpNLRI)
	}
	if len(mpWithdrawn) > 0 {
		dst = appendMPUnreach(dst, mpWithdrawn)
	}
	if !as4 && a.ASPath.needsAS4() {
		pl4 := a.ASPath.wireLen(true)
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrAS4Path, pl4)
		dst = a.ASPath.appendWire(dst, true)
	}
	if !as4 && a.Aggregator != nil && a.Aggregator.AS > 0xFFFF {
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrAS4Aggregator, 8)
		as := a.Aggregator.AS
		dst = append(dst, byte(as>>24), byte(as>>16), byte(as>>8), byte(as))
		dst = a.Aggregator.Addr.AppendBytes(dst)
	}
	for _, u := range a.Unknown {
		dst = appendAttrHeader(dst, u.Flags&^FlagExtLen, u.Type, len(u.Value))
		dst = append(dst, u.Value...)
	}
	return dst
}

// appendMPReach appends the MP_REACH_NLRI attribute (RFC 4760 section 3):
// AFI, SAFI, next-hop length + next hop, one reserved octet, NLRI. The
// address family is taken from the NLRI (all prefixes in one MP_REACH
// share a family); with no NLRI it reflects the next hop's family.
func (a PathAttrs) appendMPReach(dst []byte, nlri []netaddr.Prefix) []byte {
	fam := netaddr.FamilyV6
	if len(nlri) > 0 {
		fam = nlri[0].Family()
	} else if a.HasNextHop {
		fam = a.NextHop.Family()
	}
	vlen := 2 + 1 + 1 + 1 // AFI + SAFI + nhLen + reserved
	if a.HasNextHop {
		vlen += a.NextHop.Bits() / 8
	}
	for _, p := range nlri {
		vlen += 1 + p.WireLen()
	}
	dst = appendAttrHeader(dst, FlagOptional, AttrMPReachNLRI, vlen)
	afi := fam.AFI()
	dst = append(dst, byte(afi>>8), byte(afi), SAFIUnicast)
	if a.HasNextHop {
		dst = append(dst, byte(a.NextHop.Bits()/8))
		dst = a.NextHop.AppendBytes(dst)
	} else {
		dst = append(dst, 0)
	}
	dst = append(dst, 0) // reserved
	for _, p := range nlri {
		dst = p.AppendWire(dst)
	}
	return dst
}

// appendMPUnreach appends the MP_UNREACH_NLRI attribute (RFC 4760
// section 4): AFI, SAFI, withdrawn routes.
func appendMPUnreach(dst []byte, withdrawn []netaddr.Prefix) []byte {
	vlen := 3
	for _, p := range withdrawn {
		vlen += 1 + p.WireLen()
	}
	dst = appendAttrHeader(dst, FlagOptional, AttrMPUnreachNLRI, vlen)
	afi := withdrawn[0].Family().AFI()
	dst = append(dst, byte(afi>>8), byte(afi), SAFIUnicast)
	for _, p := range withdrawn {
		dst = p.AppendWire(dst)
	}
	return dst
}

// mpAttrData carries the UPDATE-level payload that RFC 4760 moves inside
// the attribute block: MP announced/withdrawn prefixes and the MP next
// hop. parseUpdate folds it back into the Update.
type mpAttrData struct {
	nlri       []netaddr.Prefix
	withdrawn  []netaddr.Prefix
	nextHop    netaddr.Addr
	hasNextHop bool
}

// parseAttrsMode decodes a path attribute block of exactly len(b) bytes,
// its slices taken from ar (nil: each one allocated on its own). as4
// selects the AS_PATH and AGGREGATOR encoding negotiated for the session
// (RFC 6793); in 2-octet mode AS4_PATH/AS4_AGGREGATOR are merged per
// RFC 6793 4.2.3.
func parseAttrsMode(b []byte, as4 bool, ar *arena) (PathAttrs, mpAttrData, error) {
	var a PathAttrs
	var mp mpAttrData
	var as4Path *ASPath
	var as4Agg *Aggregator
	var seen [256]bool
	for len(b) > 0 {
		if len(b) < 3 {
			return a, mp, notifyErrf(ErrCodeUpdate, ErrSubMalformedAttrList, nil, "truncated attribute header")
		}
		flags := b[0]
		typ := AttrType(b[1])
		var vlen, hlen int
		if flags&FlagExtLen != 0 {
			if len(b) < 4 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubMalformedAttrList, nil, "truncated extended attribute header")
			}
			vlen = int(b[2])<<8 | int(b[3])
			hlen = 4
		} else {
			vlen = int(b[2])
			hlen = 3
		}
		if len(b) < hlen+vlen {
			return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, b[:min(len(b), hlen)], "attribute %s length %d overruns block", typ, vlen)
		}
		val := b[hlen : hlen+vlen]
		if seen[typ] {
			return a, mp, notifyErrf(ErrCodeUpdate, ErrSubMalformedAttrList, nil, "duplicate attribute %s", typ)
		}
		seen[typ] = true

		if err := checkAttrFlags(flags, typ); err != nil {
			return a, mp, err
		}
		switch typ {
		case AttrOrigin:
			if vlen != 1 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "ORIGIN length %d", vlen)
			}
			if val[0] > byte(OriginIncomplete) {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubInvalidOrigin, val, "ORIGIN value %d", val[0])
			}
			a.Origin, a.HasOrigin = Origin(val[0]), true
		case AttrASPath:
			size := 2
			if as4 {
				size = 4
			}
			p, err := parseASPath(val, size, ar)
			if err != nil {
				return a, mp, err
			}
			a.ASPath = p
		case AttrNextHop:
			if vlen != 4 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "NEXT_HOP length %d", vlen)
			}
			a.NextHop, a.HasNextHop = netaddr.AddrFromBytes(val), true
		case AttrMED:
			if vlen != 4 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "MED length %d", vlen)
			}
			a.MED, a.HasMED = be32(val), true
		case AttrLocalPref:
			if vlen != 4 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "LOCAL_PREF length %d", vlen)
			}
			a.LocalPref, a.HasLocalPref = be32(val), true
		case AttrAtomicAggregate:
			if vlen != 0 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "ATOMIC_AGGREGATE length %d", vlen)
			}
			a.AtomicAggregate = true
		case AttrAggregator:
			if as4 {
				if vlen != 8 {
					return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "AGGREGATOR length %d", vlen)
				}
				a.Aggregator = &Aggregator{AS: be32(val[:4]), Addr: netaddr.AddrFromBytes(val[4:8])}
			} else {
				if vlen != 6 {
					return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "AGGREGATOR length %d", vlen)
				}
				a.Aggregator = &Aggregator{
					AS:   uint32(val[0])<<8 | uint32(val[1]),
					Addr: netaddr.AddrFromBytes(val[2:6]),
				}
			}
		case AttrCommunities:
			if vlen%4 != 0 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubOptAttr, val, "COMMUNITIES length %d", vlen)
			}
			for i := 0; i < vlen; i += 4 {
				a.Communities = appendRun(ar.communities(), a.Communities, Community(be32(val[i:i+4])))
			}
		case AttrMPReachNLRI:
			if err := parseMPReach(val, &mp, ar); err != nil {
				return a, mp, err
			}
		case AttrMPUnreachNLRI:
			if err := parseMPUnreach(val, &mp, ar); err != nil {
				return a, mp, err
			}
		case AttrAS4Path:
			p, err := parseASPath(val, 4, nil)
			if err != nil {
				return a, mp, err
			}
			// A session that negotiated 4-octet ASNs must not see AS4_PATH;
			// RFC 6793 says discard it there.
			if !as4 {
				as4Path = &p
			}
		case AttrAS4Aggregator:
			if vlen != 8 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubAttrLength, val, "AS4_AGGREGATOR length %d", vlen)
			}
			if !as4 {
				as4Agg = &Aggregator{AS: be32(val[:4]), Addr: netaddr.AddrFromBytes(val[4:8])}
			}
		default:
			if flags&FlagOptional == 0 {
				return a, mp, notifyErrf(ErrCodeUpdate, ErrSubUnrecognizedWellKnown, val, "unrecognized well-known attribute %d", typ)
			}
			// Unknown optional attribute: keep transitive ones (with the
			// partial bit set on re-advertisement), drop non-transitive.
			if flags&FlagTransitive != 0 {
				a.Unknown = append(a.Unknown, RawAttr{
					Flags: flags | FlagPartial,
					Type:  typ,
					Value: append([]byte(nil), val...),
				})
			}
		}
		b = b[hlen+vlen:]
	}
	if as4Path != nil {
		a.ASPath = mergeAS4Path(a.ASPath, *as4Path)
	}
	if as4Agg != nil && a.Aggregator != nil && a.Aggregator.AS == ASTrans {
		agg := *as4Agg
		a.Aggregator = &agg
	}
	return a, mp, nil
}

// parseMPReach decodes an MP_REACH_NLRI value: AFI, SAFI, next hop,
// reserved octet, NLRI.
func parseMPReach(val []byte, mp *mpAttrData, ar *arena) error {
	if len(val) < 5 {
		return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, val, "MP_REACH_NLRI length %d", len(val))
	}
	afi := uint16(val[0])<<8 | uint16(val[1])
	safi := val[2]
	fam, ok := netaddr.FamilyFromAFI(afi)
	if !ok || safi != SAFIUnicast {
		return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, val[:3], "MP_REACH_NLRI unsupported AFI %d / SAFI %d", afi, safi)
	}
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, nil, "MP_REACH_NLRI next hop overruns attribute")
	}
	switch nhLen {
	case 0:
	case 4, 16:
		mp.nextHop = netaddr.AddrFromBytes(val[4 : 4+nhLen])
		mp.hasNextHop = true
	default:
		return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, nil, "MP_REACH_NLRI next hop length %d", nhLen)
	}
	nb := val[4+nhLen+1:] // skip reserved octet
	mp.nlri = ar.prefixRun(nb)
	for len(nb) > 0 {
		p, n, err := netaddr.PrefixFromWireFamily(nb, fam)
		if err != nil {
			return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, nil, "MP_REACH_NLRI: %v", err)
		}
		mp.nlri = append(mp.nlri, p)
		nb = nb[n:]
	}
	return nil
}

// parseMPUnreach decodes an MP_UNREACH_NLRI value: AFI, SAFI, withdrawn
// routes.
func parseMPUnreach(val []byte, mp *mpAttrData, ar *arena) error {
	if len(val) < 3 {
		return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, val, "MP_UNREACH_NLRI length %d", len(val))
	}
	afi := uint16(val[0])<<8 | uint16(val[1])
	safi := val[2]
	fam, ok := netaddr.FamilyFromAFI(afi)
	if !ok || safi != SAFIUnicast {
		return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, val[:3], "MP_UNREACH_NLRI unsupported AFI %d / SAFI %d", afi, safi)
	}
	nb := val[3:]
	mp.withdrawn = ar.prefixRun(nb)
	for len(nb) > 0 {
		p, n, err := netaddr.PrefixFromWireFamily(nb, fam)
		if err != nil {
			return notifyErrf(ErrCodeUpdate, ErrSubOptAttr, nil, "MP_UNREACH_NLRI: %v", err)
		}
		mp.withdrawn = append(mp.withdrawn, p)
		nb = nb[n:]
	}
	return nil
}

// validateForAnnounce enforces the mandatory attributes that RFC 4271
// requires when an UPDATE carries NLRI.
func (a PathAttrs) validateForAnnounce() error {
	if !a.HasOrigin {
		return notifyErrf(ErrCodeUpdate, ErrSubMissingWellKnown, []byte{byte(AttrOrigin)}, "missing ORIGIN")
	}
	if !a.HasNextHop {
		return notifyErrf(ErrCodeUpdate, ErrSubMissingWellKnown, []byte{byte(AttrNextHop)}, "missing NEXT_HOP")
	}
	return nil
}

// checkAttrFlags enforces RFC 4271 section 5's flag rules for the
// attributes this implementation recognizes: well-known attributes must be
// transitive and not optional; MED and the RFC 4760 MP attributes are
// optional non-transitive; AGGREGATOR, COMMUNITIES, and the RFC 6793 AS4
// attributes are optional transitive. Violations yield the attribute-flags
// error (subcode 4).
func checkAttrFlags(flags byte, typ AttrType) error {
	bad := func() error {
		return notifyErrf(ErrCodeUpdate, ErrSubAttrFlags, []byte{flags, byte(typ)},
			"attribute %s has invalid flags %#x", typ, flags)
	}
	switch typ {
	case AttrOrigin, AttrASPath, AttrNextHop, AttrLocalPref, AttrAtomicAggregate:
		// Well-known: transitive set, optional clear.
		if flags&FlagOptional != 0 || flags&FlagTransitive == 0 {
			return bad()
		}
	case AttrMED, AttrMPReachNLRI, AttrMPUnreachNLRI:
		// Optional non-transitive.
		if flags&FlagOptional == 0 || flags&FlagTransitive != 0 {
			return bad()
		}
	case AttrAggregator, AttrCommunities, AttrAS4Path, AttrAS4Aggregator:
		// Optional transitive.
		if flags&FlagOptional == 0 || flags&FlagTransitive == 0 {
			return bad()
		}
	}
	return nil
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
