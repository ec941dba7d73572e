package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bgpbench/internal/netaddr"
)

func mustMarshal(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m, err)
	}
	return b
}

func TestKeepaliveRoundTrip(t *testing.T) {
	b := mustMarshal(t, Keepalive{})
	if len(b) != HeaderLen {
		t.Fatalf("KEEPALIVE length %d, want %d", len(b), HeaderLen)
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(Keepalive); !ok {
		t.Fatalf("got %T, want Keepalive", m)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := NewOpen(65001, 180, netaddr.MustParseAddr("10.0.0.1"))
	o.OptParams = []byte{2, 6, 1, 4, 0, 1, 0, 1} // an opaque capability blob
	m, err := Parse(mustMarshal(t, o))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(Open)
	if !ok {
		t.Fatalf("got %T, want Open", m)
	}
	if got.Version != 4 || got.AS != 65001 || got.HoldTime != 180 ||
		got.ID != netaddr.MustParseAddr("10.0.0.1") || !bytes.Equal(got.OptParams, o.OptParams) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestOpenValidation(t *testing.T) {
	base := NewOpen(65001, 180, netaddr.MustParseAddr("10.0.0.1"))

	bad := base
	bad.Version = 3
	if _, err := Parse(mustMarshal(t, bad)); !isNotify(err, ErrCodeOpen, ErrSubBadVersion) {
		t.Errorf("version 3: err = %v, want OPEN/bad-version", err)
	}

	bad = base
	bad.HoldTime = 2
	if _, err := Parse(mustMarshal(t, bad)); !isNotify(err, ErrCodeOpen, ErrSubBadHoldTime) {
		t.Errorf("hold time 2: err = %v, want OPEN/bad-hold-time", err)
	}

	bad = base
	bad.ID = netaddr.AddrFromV4(0)
	if _, err := Parse(mustMarshal(t, bad)); !isNotify(err, ErrCodeOpen, ErrSubBadBGPID) {
		t.Errorf("zero ID: err = %v, want OPEN/bad-id", err)
	}

	// Hold time 0 (keepalives disabled) is legal.
	ok := base
	ok.HoldTime = 0
	if _, err := Parse(mustMarshal(t, ok)); err != nil {
		t.Errorf("hold time 0 rejected: %v", err)
	}
}

func isNotify(err error, code, subcode uint8) bool {
	var ne *NotifyError
	if !errors.As(err, &ne) {
		return false
	}
	return ne.Code == code && ne.Subcode == subcode
}

func TestNotificationRoundTrip(t *testing.T) {
	n := Notification{Code: ErrCodeCease, Subcode: 0, Data: []byte("bye")}
	m, err := Parse(mustMarshal(t, n))
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Notification)
	if got.Code != n.Code || got.Subcode != n.Subcode || !bytes.Equal(got.Data, n.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Error() == "" {
		t.Error("Notification.Error() empty")
	}
}

func randomAttrs(r *rand.Rand) PathAttrs {
	a := NewPathAttrs(Origin(r.Intn(3)), randomASPath(r), netaddr.AddrFromV4(r.Uint32()))
	if r.Intn(2) == 0 {
		a.MED, a.HasMED = r.Uint32(), true
	}
	if r.Intn(2) == 0 {
		a.LocalPref, a.HasLocalPref = r.Uint32(), true
	}
	if r.Intn(4) == 0 {
		a.AtomicAggregate = true
	}
	if r.Intn(4) == 0 {
		a.Aggregator = &Aggregator{AS: uint32(r.Intn(65536)), Addr: netaddr.AddrFromV4(r.Uint32())}
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		a.Communities = append(a.Communities, CommunityFrom(uint16(r.Intn(65536)), uint16(r.Intn(65536))))
	}
	return a
}

func randomPrefixes(r *rand.Rand, max int) []netaddr.Prefix {
	n := r.Intn(max)
	out := make([]netaddr.Prefix, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, netaddr.PrefixFrom(netaddr.AddrFromV4(r.Uint32()), 8+r.Intn(25)))
	}
	return out
}

func TestUpdateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		u := Update{
			Withdrawn: randomPrefixes(r, 8),
			NLRI:      randomPrefixes(r, 8),
		}
		if len(u.NLRI) > 0 || r.Intn(2) == 0 {
			u.Attrs = randomAttrs(r)
		}
		m, err := Parse(mustMarshal(t, u))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		got := m.(Update)
		if len(got.Withdrawn) != len(u.Withdrawn) || len(got.NLRI) != len(u.NLRI) {
			t.Fatalf("iteration %d: prefix counts differ", i)
		}
		for j := range u.Withdrawn {
			if got.Withdrawn[j] != u.Withdrawn[j] {
				t.Fatalf("iteration %d: withdrawn[%d] = %v, want %v", i, j, got.Withdrawn[j], u.Withdrawn[j])
			}
		}
		for j := range u.NLRI {
			if got.NLRI[j] != u.NLRI[j] {
				t.Fatalf("iteration %d: nlri[%d] = %v, want %v", i, j, got.NLRI[j], u.NLRI[j])
			}
		}
		// Communities are canonicalized (sorted) on encode; sort expectation.
		want := u.Attrs.Clone()
		sortCommunities(want.Communities)
		if (len(u.NLRI) > 0 || !u.Attrs.Equal(PathAttrs{})) && !got.Attrs.Equal(want) {
			t.Fatalf("iteration %d: attrs = %v, want %v", i, got.Attrs, want)
		}
	}
}

func sortCommunities(cs []Community) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j] < cs[j-1]; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func TestUpdateEndOfRIB(t *testing.T) {
	// An empty UPDATE (no withdrawn, no attrs, no NLRI) is the conventional
	// end-of-RIB marker.
	b := mustMarshal(t, Update{})
	if len(b) != HeaderLen+4 {
		t.Fatalf("empty UPDATE length %d, want %d", len(b), HeaderLen+4)
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	u := m.(Update)
	if len(u.Withdrawn) != 0 || len(u.NLRI) != 0 {
		t.Fatal("empty UPDATE decoded non-empty")
	}
}

func TestUpdateMissingMandatoryAttrs(t *testing.T) {
	u := Update{NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/8")}}
	u.Attrs.ASPath = NewASPath(65001)
	u.Attrs.HasNextHop = true
	u.Attrs.NextHop = netaddr.MustParseAddr("192.0.2.1")
	// Missing ORIGIN.
	if _, err := Parse(mustMarshal(t, u)); !isNotify(err, ErrCodeUpdate, ErrSubMissingWellKnown) {
		t.Errorf("missing ORIGIN: err = %v", err)
	}
	u.Attrs.HasOrigin = true
	u.Attrs.HasNextHop = false
	if _, err := Parse(mustMarshal(t, u)); !isNotify(err, ErrCodeUpdate, ErrSubMissingWellKnown) {
		t.Errorf("missing NEXT_HOP: err = %v", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	good := mustMarshal(t, Keepalive{})

	bad := append([]byte(nil), good...)
	bad[3] = 0x00 // corrupt marker
	if _, err := Parse(bad); !isNotify(err, ErrCodeHeader, ErrSubSyncLost) {
		t.Errorf("corrupt marker: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[18] = 9 // bad type
	if _, err := Parse(bad); !isNotify(err, ErrCodeHeader, ErrSubBadMsgType) {
		t.Errorf("bad type: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[17] = HeaderLen - 1 // length below minimum
	if _, err := Parse(bad); !isNotify(err, ErrCodeHeader, ErrSubBadLength) {
		t.Errorf("short length: err = %v", err)
	}

	// KEEPALIVE with a body.
	bad = append(append([]byte(nil), good...), 0xAB)
	bad[17] = HeaderLen + 1
	if _, err := Parse(bad); !isNotify(err, ErrCodeHeader, ErrSubBadLength) {
		t.Errorf("keepalive with body: err = %v", err)
	}
}

func TestMarshalTooLarge(t *testing.T) {
	var u Update
	for i := 0; i < 1200; i++ {
		u.NLRI = append(u.NLRI, netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<8), 24))
	}
	u.Attrs = NewPathAttrs(OriginIGP, NewASPath(1), netaddr.MustParseAddr("10.0.0.1"))
	if _, err := Marshal(u); err == nil {
		t.Fatal("oversized UPDATE should fail to marshal")
	}
}

func TestParseAttrsErrors(t *testing.T) {
	cases := []struct {
		name    string
		in      []byte
		subcode uint8
	}{
		{"truncated header", []byte{0x40}, ErrSubMalformedAttrList},
		{"origin bad length", []byte{0x40, 1, 2, 0, 0}, ErrSubAttrLength},
		{"origin bad value", []byte{0x40, 1, 1, 7}, ErrSubInvalidOrigin},
		{"nexthop bad length", []byte{0x40, 3, 2, 1, 2}, ErrSubAttrLength},
		{"med bad length", []byte{0x80, 4, 1, 9}, ErrSubAttrLength},
		{"overrun", []byte{0x40, 1, 200, 0}, ErrSubAttrLength},
		{"unknown well-known", []byte{0x40, 99, 1, 0}, ErrSubUnrecognizedWellKnown},
		{"duplicate", []byte{0x40, 1, 1, 0, 0x40, 1, 1, 0}, ErrSubMalformedAttrList},
		{"communities bad length", []byte{0xC0, 8, 3, 1, 2, 3}, ErrSubOptAttr},
	}
	for _, c := range cases {
		_, err := UnmarshalAttrs(c.in)
		if !isNotify(err, ErrCodeUpdate, c.subcode) {
			t.Errorf("%s: err = %v, want UPDATE subcode %d", c.name, err, c.subcode)
		}
	}
}

func TestUnknownOptionalTransitivePreserved(t *testing.T) {
	// flags: optional+transitive, type 200, len 3.
	in := []byte{FlagOptional | FlagTransitive, 200, 3, 0xDE, 0xAD, 0xBF}
	a, err := UnmarshalAttrs(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Unknown) != 1 || a.Unknown[0].Type != 200 {
		t.Fatalf("unknown attr not preserved: %+v", a.Unknown)
	}
	if a.Unknown[0].Flags&FlagPartial == 0 {
		t.Error("partial bit not set on preserved unknown attribute")
	}
	// Non-transitive optional attributes are dropped.
	in = []byte{FlagOptional, 201, 1, 0x01}
	a, err = UnmarshalAttrs(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Unknown) != 0 {
		t.Fatal("non-transitive optional attribute should be dropped")
	}
}

func TestExtendedLengthAttr(t *testing.T) {
	// Build a path long enough to force the extended-length encoding.
	asns := make([]uint32, 0, 200)
	for i := 0; i < 200; i++ {
		asns = append(asns, uint32(i+1))
	}
	// A single segment holds at most 255 ASNs; 200 fits, value len 402 > 255.
	a := NewPathAttrs(OriginIGP, NewASPath(asns...), netaddr.MustParseAddr("10.0.0.1"))
	u := Update{Attrs: a, NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/8")}}
	m, err := Parse(mustMarshal(t, u))
	if err != nil {
		t.Fatal(err)
	}
	if !m.(Update).Attrs.ASPath.Equal(a.ASPath) {
		t.Fatal("extended-length AS_PATH round trip failed")
	}
}

func TestCommunityString(t *testing.T) {
	c := CommunityFrom(65001, 42)
	if c.String() != "65001:42" {
		t.Errorf("String() = %q", c.String())
	}
}

func TestPathAttrsString(t *testing.T) {
	a := NewPathAttrs(OriginIGP, NewASPath(1, 2), netaddr.MustParseAddr("10.0.0.1"))
	a.HasMED, a.MED = true, 5
	a.Communities = []Community{CommunityFrom(1, 2)}
	s := a.String()
	for _, want := range []string{"origin=IGP", "as-path=[1 2]", "next-hop=10.0.0.1", "med=5", "communities=1:2"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

func TestAttrFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"origin marked optional", []byte{FlagOptional | FlagTransitive, byte(AttrOrigin), 1, 0}},
		{"origin not transitive", []byte{0x00, byte(AttrOrigin), 1, 0}},
		{"med marked transitive", []byte{FlagOptional | FlagTransitive, byte(AttrMED), 4, 0, 0, 0, 1}},
		{"med not optional", []byte{0x00, byte(AttrMED), 4, 0, 0, 0, 1}},
		{"aggregator not optional", []byte{FlagTransitive, byte(AttrAggregator), 6, 0, 1, 1, 2, 3, 4}},
		{"communities not transitive", []byte{FlagOptional, byte(AttrCommunities), 4, 0, 1, 0, 2}},
	}
	for _, c := range cases {
		if _, err := UnmarshalAttrs(c.in); !isNotify(err, ErrCodeUpdate, ErrSubAttrFlags) {
			t.Errorf("%s: err = %v, want attribute-flags error", c.name, err)
		}
	}
	// Correct flags still parse.
	good := []byte{FlagTransitive, byte(AttrOrigin), 1, 0}
	if _, err := UnmarshalAttrs(good); err != nil {
		t.Fatalf("well-formed ORIGIN rejected: %v", err)
	}
}
