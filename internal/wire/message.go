package wire

import (
	"fmt"

	"bgpbench/internal/netaddr"
)

// Message is any BGP message that can be marshalled onto the wire.
type Message interface {
	// Type returns the BGP message type code.
	Type() MsgType
	// AppendBody appends the message body (everything after the 19-byte
	// header) to dst and returns the extended slice.
	AppendBody(dst []byte) []byte
}

// Marshal renders a complete BGP message: marker, length, type, body.
// UPDATEs are encoded in canonical 2-octet-AS mode.
func Marshal(m Message) ([]byte, error) {
	return AppendMessageMode(make([]byte, 0, HeaderLen+64), m, false)
}

// AppendMessageMode appends the complete wire encoding of m (marker,
// length, type, body) to dst and returns the extended slice. Senders that
// encode many messages reuse one buffer across calls instead of
// allocating per message as Marshal does. as4 is the session's AS
// encoding mode: when true, UPDATE AS_PATH/AGGREGATOR attributes are
// written with 4-octet ASNs and no AS4_PATH shadow attribute (RFC 6793);
// false is the canonical 2-octet mode.
func AppendMessageMode(dst []byte, m Message, as4 bool) ([]byte, error) {
	start := len(dst)
	for i := 0; i < 16; i++ {
		dst = append(dst, 0xFF)
	}
	dst = append(dst, 0, 0, byte(m.Type()))
	if u, ok := m.(Update); ok {
		dst = u.appendBodyMode(dst, as4)
	} else {
		dst = m.AppendBody(dst)
	}
	n := len(dst) - start
	if n > MaxMsgLen {
		return dst[:start], fmt.Errorf("wire: %s message length %d exceeds maximum %d", m.Type(), n, MaxMsgLen)
	}
	dst[start+16] = byte(n >> 8)
	dst[start+17] = byte(n)
	return dst, nil
}

// ParseHeader validates a 19-byte BGP header and returns the total message
// length and type.
func ParseHeader(h []byte) (length int, typ MsgType, err error) {
	if len(h) < HeaderLen {
		return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, nil, "short header (%d bytes)", len(h))
	}
	for i := 0; i < 16; i++ {
		if h[i] != 0xFF {
			return 0, 0, notifyErrf(ErrCodeHeader, ErrSubSyncLost, nil, "connection not synchronized (marker byte %d = %#x)", i, h[i])
		}
	}
	length = int(h[16])<<8 | int(h[17])
	typ = MsgType(h[18])
	if length < HeaderLen || length > MaxMsgLen {
		return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, h[16:18], "bad message length %d", length)
	}
	switch typ {
	case MsgOpen:
		if length < MinOpenLen {
			return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, h[16:18], "OPEN length %d < %d", length, MinOpenLen)
		}
	case MsgUpdate:
		if length < HeaderLen+4 {
			return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, h[16:18], "UPDATE length %d too small", length)
		}
	case MsgNotification:
		if length < HeaderLen+2 {
			return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, h[16:18], "NOTIFICATION length %d too small", length)
		}
	case MsgKeepalive:
		if length != HeaderLen {
			return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, h[16:18], "KEEPALIVE length %d != %d", length, HeaderLen)
		}
	case MsgRouteRefresh:
		if length != HeaderLen+4 {
			return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadLength, h[16:18], "ROUTE-REFRESH length %d != %d", length, HeaderLen+4)
		}
	default:
		return 0, 0, notifyErrf(ErrCodeHeader, ErrSubBadMsgType, []byte{byte(typ)}, "bad message type %d", typ)
	}
	return length, typ, nil
}

// ParseBodyMode decodes a message body of the given type. body excludes
// the 19-byte header. UPDATEs are decoded in the session's AS encoding
// mode: 4-octet ASNs when as4 is true, 2-octet otherwise.
func ParseBodyMode(typ MsgType, body []byte, as4 bool) (Message, error) {
	switch typ {
	case MsgOpen:
		return parseOpen(body)
	case MsgUpdate:
		return parseUpdate(body, as4)
	case MsgNotification:
		return parseNotification(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, notifyErrf(ErrCodeHeader, ErrSubBadLength, nil, "KEEPALIVE with body")
		}
		return Keepalive{}, nil
	case MsgRouteRefresh:
		return parseRouteRefresh(body)
	}
	return nil, notifyErrf(ErrCodeHeader, ErrSubBadMsgType, []byte{byte(typ)}, "bad message type %d", typ)
}

// Parse decodes a complete message (header + body) from b, UPDATEs in
// 2-octet-AS mode.
func Parse(b []byte) (Message, error) {
	length, typ, err := ParseHeader(b)
	if err != nil {
		return nil, err
	}
	if len(b) != length {
		return nil, notifyErrf(ErrCodeHeader, ErrSubBadLength, nil, "buffer length %d != header length %d", len(b), length)
	}
	return ParseBodyMode(typ, b[HeaderLen:], false)
}

// Open is the BGP OPEN message (RFC 4271 section 4.2). AS is the true
// (4-octet) AS number; the 2-octet wire field carries AS_TRANS when it
// does not fit (RFC 6793), and the real value travels in the 4-octet-AS
// capability.
type Open struct {
	Version  uint8
	AS       uint32
	HoldTime uint16 // seconds; 0 disables keepalives, otherwise must be >= 3
	ID       netaddr.Addr
	// OptParams carries raw optional parameters (e.g. capabilities,
	// RFC 5492). They are preserved but not interpreted.
	OptParams []byte
}

// NewOpen builds an OPEN with the protocol version filled in.
func NewOpen(as uint32, holdTime uint16, id netaddr.Addr) Open {
	return Open{Version: Version, AS: as, HoldTime: holdTime, ID: id}
}

// Type returns MsgOpen.
func (Open) Type() MsgType { return MsgOpen }

// AppendBody appends the OPEN body.
func (o Open) AppendBody(dst []byte) []byte {
	was := o.AS
	if was > 0xFFFF {
		was = ASTrans
	}
	dst = append(dst, o.Version, byte(was>>8), byte(was), byte(o.HoldTime>>8), byte(o.HoldTime))
	dst = o.ID.AppendBytes(dst)
	dst = append(dst, byte(len(o.OptParams)))
	return append(dst, o.OptParams...)
}

// Caps parses the capabilities advertised in the optional parameters,
// returning nil when the block is absent or malformed (OPEN validation
// reports malformed blocks separately).
func (o Open) Caps() []Capability {
	caps, err := ParseCapabilities(o.OptParams)
	if err != nil {
		return nil
	}
	return caps
}

// FourOctetAS returns the AS number advertised in the 4-octet-AS
// capability (RFC 6793) and whether the capability was present.
func (o Open) FourOctetAS() (uint32, bool) {
	for _, c := range o.Caps() {
		if c.Code == CapFourOctetAS && len(c.Value) == 4 {
			return be32(c.Value), true
		}
	}
	return 0, false
}

// EffectiveAS returns the peer's true AS number: the 4-octet-AS
// capability value when advertised, otherwise the 2-octet field.
func (o Open) EffectiveAS() uint32 {
	if as, ok := o.FourOctetAS(); ok {
		return as
	}
	return o.AS
}

func parseOpen(b []byte) (Message, error) {
	if len(b) < MinOpenLen-HeaderLen {
		return nil, notifyErrf(ErrCodeOpen, ErrSubBadOptParam, nil, "short OPEN body (%d bytes)", len(b))
	}
	o := Open{
		Version:  b[0],
		AS:       uint32(b[1])<<8 | uint32(b[2]),
		HoldTime: uint16(b[3])<<8 | uint16(b[4]),
		ID:       netaddr.AddrFromBytes(b[5:9]),
	}
	optLen := int(b[9])
	if len(b) != 10+optLen {
		return nil, notifyErrf(ErrCodeOpen, ErrSubBadOptParam, nil, "OPEN optional parameter length %d mismatches body", optLen)
	}
	if o.Version != Version {
		return nil, notifyErrf(ErrCodeOpen, ErrSubBadVersion, []byte{0, Version}, "unsupported version %d", o.Version)
	}
	if o.HoldTime == 1 || o.HoldTime == 2 {
		return nil, notifyErrf(ErrCodeOpen, ErrSubBadHoldTime, nil, "hold time %d (must be 0 or >= 3)", o.HoldTime)
	}
	if o.ID.IsZero() {
		return nil, notifyErrf(ErrCodeOpen, ErrSubBadBGPID, nil, "zero BGP identifier")
	}
	if optLen > 0 {
		o.OptParams = append([]byte(nil), b[10:10+optLen]...)
	}
	return o, nil
}

// Update is the BGP UPDATE message (RFC 4271 section 4.3). Withdrawn and
// NLRI may mix address families: IPv4 prefixes use the classic top-level
// fields on the wire, IPv6 prefixes are folded into MP_REACH_NLRI /
// MP_UNREACH_NLRI attributes (RFC 4760) on encode and unfolded on parse.
type Update struct {
	Withdrawn []netaddr.Prefix
	Attrs     PathAttrs
	NLRI      []netaddr.Prefix
}

// Type returns MsgUpdate.
func (Update) Type() MsgType { return MsgUpdate }

// splitFamily partitions prefixes into IPv4 (classic encoding) and
// non-IPv4 (MP attribute encoding). The common all-v4 case returns the
// input slice unchanged with a nil remainder.
func splitFamily(ps []netaddr.Prefix) (v4, mp []netaddr.Prefix) {
	allV4 := true
	for _, p := range ps {
		if !p.Addr().Is4() {
			allV4 = false
			break
		}
	}
	if allV4 {
		return ps, nil
	}
	for _, p := range ps {
		if p.Addr().Is4() {
			v4 = append(v4, p)
		} else {
			mp = append(mp, p)
		}
	}
	return v4, mp
}

// AppendBody appends the UPDATE body in canonical 2-octet-AS mode.
func (u Update) AppendBody(dst []byte) []byte {
	return u.appendBodyMode(dst, false)
}

func (u Update) appendBodyMode(dst []byte, as4 bool) []byte {
	v4NLRI, mpNLRI := splitFamily(u.NLRI)
	v4Wdr, mpWdr := splitFamily(u.Withdrawn)
	// Withdrawn routes (IPv4 only; IPv6 withdrawals ride MP_UNREACH_NLRI).
	wStart := len(dst)
	dst = append(dst, 0, 0)
	for _, p := range v4Wdr {
		dst = p.AppendWire(dst)
	}
	wLen := len(dst) - wStart - 2
	dst[wStart] = byte(wLen >> 8)
	dst[wStart+1] = byte(wLen)
	// Path attributes: present when the update announces something,
	// explicitly carries attributes, or needs MP attributes.
	aStart := len(dst)
	dst = append(dst, 0, 0)
	if len(u.NLRI) > 0 || len(mpWdr) > 0 || !u.Attrs.Equal(PathAttrs{}) {
		dst = u.Attrs.appendWireMode(dst, as4, mpNLRI, mpWdr)
	}
	aLen := len(dst) - aStart - 2
	dst[aStart] = byte(aLen >> 8)
	dst[aStart+1] = byte(aLen)
	for _, p := range v4NLRI {
		dst = p.AppendWire(dst)
	}
	return dst
}

func parseUpdate(b []byte, as4 bool) (Message, error) {
	var u Update
	if err := decodeUpdate(&u, b, as4, nil); err != nil {
		return nil, err
	}
	return u, nil
}

// decodeUpdate decodes an UPDATE body into the zero *u, its slices taken
// from ar (nil: each one allocated on its own).
func decodeUpdate(u *Update, b []byte, as4 bool, ar *arena) error {
	if len(b) < 4 {
		return notifyErrf(ErrCodeUpdate, ErrSubMalformedAttrList, nil, "short UPDATE body")
	}
	wLen := int(b[0])<<8 | int(b[1])
	if len(b) < 2+wLen+2 {
		return notifyErrf(ErrCodeUpdate, ErrSubMalformedAttrList, nil, "withdrawn routes length %d overruns body", wLen)
	}
	wb := b[2 : 2+wLen]
	u.Withdrawn = ar.prefixRun(wb)
	for len(wb) > 0 {
		p, n, err := netaddr.PrefixFromWire(wb)
		if err != nil {
			return notifyErrf(ErrCodeUpdate, ErrSubInvalidNetwork, nil, "withdrawn route: %v", err)
		}
		u.Withdrawn = append(u.Withdrawn, p)
		wb = wb[n:]
	}
	rest := b[2+wLen:]
	aLen := int(rest[0])<<8 | int(rest[1])
	if len(rest) < 2+aLen {
		return notifyErrf(ErrCodeUpdate, ErrSubMalformedAttrList, nil, "attribute length %d overruns body", aLen)
	}
	var mp mpAttrData
	if aLen > 0 {
		attrs, mpd, err := parseAttrsMode(rest[2:2+aLen], as4, ar)
		if err != nil {
			return err
		}
		u.Attrs, mp = attrs, mpd
	}
	nb := rest[2+aLen:]
	u.NLRI = ar.prefixRun(nb)
	for len(nb) > 0 {
		p, n, err := netaddr.PrefixFromWire(nb)
		if err != nil {
			return notifyErrf(ErrCodeUpdate, ErrSubInvalidNetwork, nil, "NLRI: %v", err)
		}
		u.NLRI = append(u.NLRI, p)
		nb = nb[n:]
	}
	// Unfold the MP attribute payload: announced prefixes join NLRI, MP
	// withdrawals join Withdrawn, and the MP next hop stands in when no
	// classic NEXT_HOP was present.
	u.NLRI = ar.concatPrefixes(u.NLRI, mp.nlri)
	u.Withdrawn = ar.concatPrefixes(u.Withdrawn, mp.withdrawn)
	if !u.Attrs.HasNextHop && mp.hasNextHop {
		u.Attrs.NextHop, u.Attrs.HasNextHop = mp.nextHop, true
	}
	if len(u.NLRI) > 0 {
		return u.Attrs.validateForAnnounce()
	}
	return nil
}

// Notification is the BGP NOTIFICATION message (RFC 4271 section 4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// NotificationFrom converts a NotifyError into the message announcing it.
func NotificationFrom(e *NotifyError) Notification {
	return Notification{Code: e.Code, Subcode: e.Subcode, Data: e.Data}
}

// Type returns MsgNotification.
func (Notification) Type() MsgType { return MsgNotification }

// AppendBody appends the NOTIFICATION body.
func (n Notification) AppendBody(dst []byte) []byte {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...)
}

// Error lets a received Notification be used directly as a session error.
func (n Notification) Error() string {
	return fmt.Sprintf("wire: NOTIFICATION code %d subcode %d", n.Code, n.Subcode)
}

func parseNotification(b []byte) (Message, error) {
	if len(b) < 2 {
		return nil, notifyErrf(ErrCodeHeader, ErrSubBadLength, nil, "short NOTIFICATION body")
	}
	n := Notification{Code: b[0], Subcode: b[1]}
	if len(b) > 2 {
		n.Data = append([]byte(nil), b[2:]...)
	}
	return n, nil
}

// RouteRefresh is the RFC 2918 ROUTE-REFRESH message: a request that the
// peer re-advertise its full Adj-RIB-Out for the address family.
type RouteRefresh struct {
	AFI  uint16
	SAFI uint8
}

// IPv4UnicastRefresh requests the conventional AFI 1 / SAFI 1 table.
func IPv4UnicastRefresh() RouteRefresh {
	return RouteRefresh{AFI: AFIIPv4, SAFI: SAFIUnicast}
}

// IPv6UnicastRefresh requests the AFI 2 / SAFI 1 table (RFC 4760).
func IPv6UnicastRefresh() RouteRefresh {
	return RouteRefresh{AFI: AFIIPv6, SAFI: SAFIUnicast}
}

// Type returns MsgRouteRefresh.
func (RouteRefresh) Type() MsgType { return MsgRouteRefresh }

// AppendBody appends AFI, reserved, SAFI.
func (r RouteRefresh) AppendBody(dst []byte) []byte {
	return append(dst, byte(r.AFI>>8), byte(r.AFI), 0, r.SAFI)
}

func parseRouteRefresh(b []byte) (Message, error) {
	if len(b) != 4 {
		return nil, notifyErrf(ErrCodeHeader, ErrSubBadLength, nil, "ROUTE-REFRESH body %d bytes", len(b))
	}
	return RouteRefresh{AFI: uint16(b[0])<<8 | uint16(b[1]), SAFI: b[3]}, nil
}

// Keepalive is the BGP KEEPALIVE message (header only).
type Keepalive struct{}

// Type returns MsgKeepalive.
func (Keepalive) Type() MsgType { return MsgKeepalive }

// AppendBody appends nothing: a KEEPALIVE is just the header.
func (Keepalive) AppendBody(dst []byte) []byte { return dst }
