package wire

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestASPathLength(t *testing.T) {
	cases := []struct {
		name string
		p    ASPath
		want int
	}{
		{"empty", ASPath{}, 0},
		{"seq3", NewASPath(1, 2, 3), 3},
		{"set counts one", ASPath{Segments: []ASSegment{
			{Type: SegASSequence, ASNs: []uint32{1, 2}},
			{Type: SegASSet, ASNs: []uint32{3, 4, 5}},
		}}, 3},
		{"two sets", ASPath{Segments: []ASSegment{
			{Type: SegASSet, ASNs: []uint32{1, 2}},
			{Type: SegASSet, ASNs: []uint32{3}},
		}}, 2},
	}
	for _, c := range cases {
		if got := c.p.Length(); got != c.want {
			t.Errorf("%s: Length() = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestASPathContains(t *testing.T) {
	p := ASPath{Segments: []ASSegment{
		{Type: SegASSequence, ASNs: []uint32{100, 200}},
		{Type: SegASSet, ASNs: []uint32{300}},
	}}
	for _, asn := range []uint32{100, 200, 300} {
		if !p.Contains(asn) {
			t.Errorf("Contains(%d) = false, want true", asn)
		}
	}
	if p.Contains(400) {
		t.Error("Contains(400) = true, want false")
	}
}

func TestASPathFirstOrigin(t *testing.T) {
	p := NewASPath(10, 20, 30)
	if f, ok := p.First(); !ok || f != 10 {
		t.Errorf("First = %d,%v; want 10,true", f, ok)
	}
	if o, ok := p.Origin(); !ok || o != 30 {
		t.Errorf("Origin = %d,%v; want 30,true", o, ok)
	}
	var empty ASPath
	if _, ok := empty.First(); ok {
		t.Error("empty path First should report false")
	}
	if _, ok := empty.Origin(); ok {
		t.Error("empty path Origin should report false")
	}
}

func TestASPathPrepend(t *testing.T) {
	p := NewASPath(2, 3)
	q := p.Prepend(1)
	if q.String() != "1 2 3" {
		t.Errorf("Prepend onto sequence = %q, want %q", q.String(), "1 2 3")
	}
	if p.String() != "2 3" {
		t.Errorf("Prepend mutated receiver: %q", p.String())
	}

	var empty ASPath
	q = empty.Prepend(5)
	if q.String() != "5" || q.Length() != 1 {
		t.Errorf("Prepend onto empty = %q", q.String())
	}

	set := ASPath{Segments: []ASSegment{{Type: SegASSet, ASNs: []uint32{7, 8}}}}
	q = set.Prepend(6)
	if len(q.Segments) != 2 || q.Segments[0].Type != SegASSequence || q.Segments[0].ASNs[0] != 6 {
		t.Errorf("Prepend onto set produced %v", q)
	}
}

func TestASPathPrependIncrementsLength(t *testing.T) {
	f := func(asns []uint32, next uint32) bool {
		p := NewASPath(asns...)
		return p.Prepend(next).Length() == p.Length()+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomASPath(r *rand.Rand) ASPath {
	var p ASPath
	for i, n := 0, r.Intn(4); i < n; i++ {
		seg := ASSegment{Type: SegASSequence}
		if r.Intn(3) == 0 {
			seg.Type = SegASSet
		}
		for j, m := 0, 1+r.Intn(6); j < m; j++ {
			seg.ASNs = append(seg.ASNs, uint32(r.Intn(65535)+1))
		}
		p.Segments = append(p.Segments, seg)
	}
	return p
}

func TestASPathWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := randomASPath(r)
		// 2-octet encoding: every generated ASN fits in 16 bits.
		buf := p.appendWire(nil, false)
		if len(buf) != p.wireLen(false) {
			t.Fatalf("wireLen %d != encoded %d for %v", p.wireLen(false), len(buf), p)
		}
		q, err := parseASPath(buf, 2, nil)
		if err != nil {
			t.Fatalf("parseASPath(%v): %v", buf, err)
		}
		if !q.Equal(p) {
			t.Fatalf("round trip: got %v, want %v", q, p)
		}
		// 4-octet encoding round-trips too, including ASNs above 65535.
		wide := p.Prepend(uint32(70000 + i))
		buf = wide.appendWire(nil, true)
		if len(buf) != wide.wireLen(true) {
			t.Fatalf("as4 wireLen %d != encoded %d for %v", wide.wireLen(true), len(buf), wide)
		}
		q, err = parseASPath(buf, 4, nil)
		if err != nil {
			t.Fatalf("parseASPath as4 (%v): %v", buf, err)
		}
		if !q.Equal(wide) {
			t.Fatalf("as4 round trip: got %v, want %v", q, wide)
		}
	}
}

func TestParseASPathErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"truncated header", []byte{2}},
		{"bad segment type", []byte{9, 1, 0, 1}},
		{"empty segment", []byte{2, 0}},
		{"truncated body", []byte{2, 3, 0, 1, 0, 2}},
	}
	for _, c := range cases {
		if _, err := parseASPath(c.in, 2, nil); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestASPathString(t *testing.T) {
	p := ASPath{Segments: []ASSegment{
		{Type: SegASSequence, ASNs: []uint32{65001, 65002}},
		{Type: SegASSet, ASNs: []uint32{65003, 65004}},
	}}
	want := "65001 65002 {65003,65004}"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestASPathCloneIndependence(t *testing.T) {
	p := NewASPath(1, 2, 3)
	q := p.Clone()
	q.Segments[0].ASNs[0] = 99
	if p.Segments[0].ASNs[0] != 1 {
		t.Error("Clone shares backing storage")
	}
}
