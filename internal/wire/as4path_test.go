package wire

import (
	"bytes"
	"testing"

	"bgpbench/internal/netaddr"
)

// rawAttrs extracts the path-attribute block from a marshaled UPDATE.
func rawAttrs(t *testing.T, msg []byte) []byte {
	t.Helper()
	body := msg[HeaderLen:]
	wdrLen := int(body[0])<<8 | int(body[1])
	rest := body[2+wdrLen:]
	attrLen := int(rest[0])<<8 | int(rest[1])
	return rest[2 : 2+attrLen]
}

// attrValues walks a raw attribute block and returns the value bytes per
// attribute type (one occurrence each in canonical encodings).
func attrValues(t *testing.T, attrs []byte) map[AttrType][]byte {
	t.Helper()
	out := map[AttrType][]byte{}
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			t.Fatalf("truncated attribute header: % x", attrs)
		}
		flags, typ := attrs[0], AttrType(attrs[1])
		var vlen, off int
		if flags&FlagExtLen != 0 {
			vlen, off = int(attrs[2])<<8|int(attrs[3]), 4
		} else {
			vlen, off = int(attrs[2]), 3
		}
		if len(attrs) < off+vlen {
			t.Fatalf("attribute %v overruns block", typ)
		}
		out[typ] = attrs[off : off+vlen]
		attrs = attrs[off+vlen:]
	}
	return out
}

// TestAS4TransSubstitutionOnSend checks the RFC 6793 sender side: in
// canonical 2-octet mode a path with a 4-byte ASN goes on the wire as
// AS_PATH with AS_TRANS substituted, and the true path rides in the
// AS4_PATH shadow attribute.
func TestAS4TransSubstitutionOnSend(t *testing.T) {
	truth := NewASPath(70000, 65001, 100)
	u := Update{
		Attrs: NewPathAttrs(OriginIGP, truth, netaddr.AddrFrom4(10, 0, 0, 1)),
		NLRI:  []netaddr.Prefix{netaddr.MustParsePrefix("10.1.0.0/16")},
	}
	msg := mustMarshal(t, u)
	vals := attrValues(t, rawAttrs(t, msg))

	narrow, err := parseASPath(vals[AttrASPath], 2, nil)
	if err != nil {
		t.Fatalf("parse 2-octet AS_PATH: %v", err)
	}
	if want := NewASPath(ASTrans, 65001, 100); !narrow.Equal(want) {
		t.Errorf("wire AS_PATH = %v, want %v", narrow, want)
	}

	shadow, ok := vals[AttrAS4Path]
	if !ok {
		t.Fatal("no AS4_PATH attribute on the wire")
	}
	wide, err := parseASPath(shadow, 4, nil)
	if err != nil {
		t.Fatalf("parse AS4_PATH: %v", err)
	}
	if !wide.Equal(truth) {
		t.Errorf("AS4_PATH = %v, want %v", wide, truth)
	}
}

// TestAS4PathReconstructionOnReceive checks the receiver side: parsing
// the 2-octet encoding merges AS4_PATH back over the AS_TRANS
// substitutions, so the true path survives transit through an old
// speaker's session.
func TestAS4PathReconstructionOnReceive(t *testing.T) {
	truth := NewASPath(70000, 65001, 100)
	u := Update{
		Attrs: NewPathAttrs(OriginIGP, truth, netaddr.AddrFrom4(10, 0, 0, 1)),
		NLRI:  []netaddr.Prefix{netaddr.MustParsePrefix("10.1.0.0/16")},
	}
	msg := mustMarshal(t, u)
	m, err := ParseBodyMode(MsgUpdate, msg[HeaderLen:], false)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Update)
	if !got.Attrs.ASPath.Equal(truth) {
		t.Errorf("reconstructed path = %v, want %v", got.Attrs.ASPath, truth)
	}
}

// TestAS4PathAbsentForCleanPath checks that a path expressible entirely
// in 2-octet ASNs never grows an AS4_PATH attribute: old encodings stay
// byte-identical to the pre-RFC 6793 form.
func TestAS4PathAbsentForCleanPath(t *testing.T) {
	clean := NewASPath(65001, 100)
	u := Update{
		Attrs: NewPathAttrs(OriginIGP, clean, netaddr.AddrFrom4(10, 0, 0, 1)),
		NLRI:  []netaddr.Prefix{netaddr.MustParsePrefix("10.1.0.0/16")},
	}
	vals := attrValues(t, rawAttrs(t, mustMarshal(t, u)))
	if _, ok := vals[AttrAS4Path]; ok {
		t.Fatal("AS4_PATH emitted for a 2-octet-clean path")
	}
	m, err := ParseBodyMode(MsgUpdate, mustMarshal(t, u)[HeaderLen:], false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(Update).Attrs.ASPath; !got.Equal(clean) {
		t.Errorf("round trip = %v, want %v", got, clean)
	}
}

// TestAS4PathLongerThanASPathIgnored covers the RFC 6793 section 4.2.3
// guard: an AS4_PATH claiming more ASNs than AS_PATH is discarded and
// the substituted path is used as-is.
func TestAS4PathLongerThanASPathIgnored(t *testing.T) {
	attr := func(flags byte, typ AttrType, val []byte) []byte {
		return append([]byte{flags, byte(typ), byte(len(val))}, val...)
	}
	var attrs []byte
	attrs = append(attrs, attr(FlagTransitive, AttrOrigin, []byte{byte(OriginIGP)})...)
	// AS_PATH: one sequence of a single AS_TRANS.
	attrs = append(attrs, attr(FlagTransitive, AttrASPath,
		[]byte{SegASSequence, 1, 0x5B, 0xA0})...)
	attrs = append(attrs, attr(FlagTransitive, AttrNextHop, []byte{10, 0, 0, 1})...)
	// AS4_PATH: two 4-octet ASNs — more than AS_PATH carries.
	attrs = append(attrs, attr(FlagOptional|FlagTransitive, AttrAS4Path,
		[]byte{SegASSequence, 2, 0x00, 0x01, 0x11, 0x70, 0x00, 0x01, 0x38, 0x80})...)
	msg := frameUpdate(nil, attrs, []byte{16, 10, 1})

	m, err := ParseBodyMode(MsgUpdate, msg[HeaderLen:], false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.(Update).Attrs.ASPath, NewASPath(ASTrans); !got.Equal(want) {
		t.Errorf("path = %v, want the unmerged %v", got, want)
	}
}

// TestMergeAS4PathLeadingASNs exercises the partial merge: when the old
// speakers in the middle of the path prepended their own (2-octet) ASNs,
// the merged path keeps those leading ASNs and takes the tail from
// AS4_PATH.
func TestMergeAS4PathLeadingASNs(t *testing.T) {
	path := NewASPath(65001, ASTrans, ASTrans)
	as4 := NewASPath(70000, 80000)
	want := ASPath{Segments: []ASSegment{
		{Type: SegASSequence, ASNs: []uint32{65001}},
		{Type: SegASSequence, ASNs: []uint32{70000, 80000}},
	}}
	if got := mergeAS4Path(path, as4); !got.Equal(want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
	// An empty AS4_PATH leaves the path untouched.
	if got := mergeAS4Path(path, ASPath{}); !got.Equal(path) {
		t.Errorf("empty AS4_PATH: merge = %v, want %v", got, path)
	}
}

// TestAS4AggregatorMerge checks the AGGREGATOR/AS4_AGGREGATOR pair: a
// 4-byte aggregator AS goes out as AS_TRANS plus AS4_AGGREGATOR and
// comes back whole.
func TestAS4AggregatorMerge(t *testing.T) {
	a := NewPathAttrs(OriginIGP, NewASPath(65001), netaddr.AddrFrom4(10, 0, 0, 1))
	a.Aggregator = &Aggregator{AS: 70000, Addr: netaddr.AddrFrom4(10, 0, 0, 9)}
	u := Update{Attrs: a, NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("10.1.0.0/16")}}

	msg := mustMarshal(t, u)
	vals := attrValues(t, rawAttrs(t, msg))
	agg, ok := vals[AttrAggregator]
	if !ok || len(agg) != 6 {
		t.Fatalf("AGGREGATOR value = % x, want 6-byte 2-octet form", agg)
	}
	if as := uint32(agg[0])<<8 | uint32(agg[1]); as != ASTrans {
		t.Errorf("wire aggregator AS = %d, want AS_TRANS", as)
	}
	if _, ok := vals[AttrAS4Aggregator]; !ok {
		t.Fatal("no AS4_AGGREGATOR attribute on the wire")
	}

	m, err := ParseBodyMode(MsgUpdate, msg[HeaderLen:], false)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Update).Attrs.Aggregator
	if got == nil || got.AS != 70000 {
		t.Fatalf("merged aggregator = %+v, want AS 70000", got)
	}
}

// TestAS4WideModeHasNoShadowAttrs checks the negotiated 4-octet mode:
// AS_PATH carries the wide ASNs directly and neither shadow attribute
// appears.
func TestAS4WideModeHasNoShadowAttrs(t *testing.T) {
	a := NewPathAttrs(OriginIGP, NewASPath(70000, 65001), netaddr.AddrFrom4(10, 0, 0, 1))
	a.Aggregator = &Aggregator{AS: 70000, Addr: netaddr.AddrFrom4(10, 0, 0, 9)}
	u := Update{Attrs: a, NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("10.1.0.0/16")}}
	msg, err := AppendMessageMode(nil, u, true)
	if err != nil {
		t.Fatal(err)
	}
	vals := attrValues(t, rawAttrs(t, msg))
	if _, ok := vals[AttrAS4Path]; ok {
		t.Error("AS4_PATH emitted on a 4-octet session")
	}
	if _, ok := vals[AttrAS4Aggregator]; ok {
		t.Error("AS4_AGGREGATOR emitted on a 4-octet session")
	}
	wide, err := parseASPath(vals[AttrASPath], 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wide.Equal(a.ASPath) {
		t.Errorf("wide AS_PATH = %v, want %v", wide, a.ASPath)
	}
	if !bytes.Contains(vals[AttrASPath], []byte{0x00, 0x01, 0x11, 0x70}) {
		t.Error("wide AS_PATH does not carry the raw 4-octet 70000")
	}
}
