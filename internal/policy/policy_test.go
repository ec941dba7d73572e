package policy

import (
	"math/rand"
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

func attrs(path wire.ASPath) wire.PathAttrs {
	return wire.NewPathAttrs(wire.OriginIGP, path, netaddr.MustParseAddr("192.0.2.1"))
}

func TestPrefixRuleExact(t *testing.T) {
	r := PrefixRule{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), Action: Permit}
	if !r.Matches(netaddr.MustParsePrefix("10.0.0.0/8")) {
		t.Error("exact prefix should match")
	}
	if r.Matches(netaddr.MustParsePrefix("10.1.0.0/16")) {
		t.Error("longer prefix should not match exact rule")
	}
}

func TestPrefixRuleOrlonger(t *testing.T) {
	r := PrefixRule{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), GE: 8, LE: 24}
	cases := []struct {
		p    string
		want bool
	}{
		{"10.0.0.0/8", true},
		{"10.1.0.0/16", true},
		{"10.1.2.0/24", true},
		{"10.1.2.0/25", false}, // longer than LE
		{"11.0.0.0/16", false}, // outside prefix
		{"0.0.0.0/0", false},   // shorter than the covering prefix
	}
	for _, c := range cases {
		if got := r.Matches(netaddr.MustParsePrefix(c.p)); got != c.want {
			t.Errorf("Matches(%s) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPrefixRuleGEOnly(t *testing.T) {
	r := PrefixRule{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), GE: 16}
	if r.Matches(netaddr.MustParsePrefix("10.0.0.0/8")) {
		t.Error("/8 should fail GE 16")
	}
	if !r.Matches(netaddr.MustParsePrefix("10.0.0.0/32")) {
		t.Error("/32 should pass GE 16 with default LE 32")
	}
}

// TestPrefixRuleDefaultLE: with GE set and LE unset, the upper bound is
// the family's full length, so an IPv6 rule matches past /32.
func TestPrefixRuleDefaultLE(t *testing.T) {
	cases := []struct {
		rule   string
		ge, le int
		p      string
		want   bool
	}{
		{"10.0.0.0/8", 16, 0, "10.1.0.0/16", true},
		{"10.0.0.0/8", 16, 0, "10.1.2.3/32", true},
		{"10.0.0.0/8", 16, 0, "10.0.0.0/15", false},
		{"10.0.0.0/8", 0, 0, "10.1.0.0/16", false}, // no bounds: exact
		{"2001:db8::/32", 48, 0, "2001:db8:1::/48", true},
		{"2001:db8::/32", 48, 0, "2001:db8:1:2::/64", true},
		{"2001:db8::/32", 48, 0, "2001:db8:1:2::1/128", true},
		{"2001:db8::/32", 48, 0, "2001:db8::/47", false},
		{"2001:db8::/32", 48, 0, "2001:db9::/48", false}, // outside
		{"2001:db8::/32", 48, 56, "2001:db8:1:2::/64", false},
		{"2001:db8::/32", 0, 0, "2001:db8::/32", true},
		{"2001:db8::/32", 0, 0, "2001:db8::/33", false},
		{"2001:db8::/32", 0, 0, "10.0.0.0/8", false}, // other family
	}
	for _, c := range cases {
		r := PrefixRule{Prefix: netaddr.MustParsePrefix(c.rule), GE: c.ge, LE: c.le}
		if got := r.Matches(netaddr.MustParsePrefix(c.p)); got != c.want {
			t.Errorf("%s ge %d le %d: Matches(%s) = %v, want %v", c.rule, c.ge, c.le, c.p, got, c.want)
		}
	}
}

func TestPrefixListFirstMatchWins(t *testing.T) {
	l := &PrefixList{Name: "test", Rules: []PrefixRule{
		{Prefix: netaddr.MustParsePrefix("10.1.0.0/16"), GE: 16, LE: 32, Action: Deny},
		{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), GE: 8, LE: 32, Action: Permit},
	}}
	if l.Permits(netaddr.MustParsePrefix("10.1.2.0/24")) {
		t.Error("10.1.2.0/24 should be denied by the first rule")
	}
	if !l.Permits(netaddr.MustParsePrefix("10.2.0.0/16")) {
		t.Error("10.2.0.0/16 should be permitted by the second rule")
	}
	// Implicit deny.
	if l.Permits(netaddr.MustParsePrefix("192.168.0.0/16")) {
		t.Error("unmatched prefix should be implicitly denied")
	}
}

func TestASPathCond(t *testing.T) {
	p := wire.NewASPath(100, 200, 300)
	cases := []struct {
		name string
		c    ASPathCond
		want bool
	}{
		{"zero matches all", ASPathCond{}, true},
		{"contains", ASPathCond{Contains: []uint32{200}}, true},
		{"contains missing", ASPathCond{Contains: []uint32{400}}, false},
		{"not-contain hit", ASPathCond{NotContain: []uint32{200}}, false},
		{"not-contain miss", ASPathCond{NotContain: []uint32{400}}, true},
		{"origin", ASPathCond{OriginAS: 300}, true},
		{"origin wrong", ASPathCond{OriginAS: 100}, false},
		{"neighbor", ASPathCond{NeighborAS: 100}, true},
		{"neighbor wrong", ASPathCond{NeighborAS: 300}, false},
		{"min len ok", ASPathCond{MinLen: 3}, true},
		{"min len fail", ASPathCond{MinLen: 4}, false},
		{"max len ok", ASPathCond{MaxLen: 3}, true},
		{"max len fail", ASPathCond{MaxLen: 2}, false},
	}
	for _, c := range cases {
		if got := c.c.Matches(p); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
	// Origin/neighbor conditions fail on empty paths.
	if (ASPathCond{OriginAS: 1}).Matches(wire.ASPath{}) {
		t.Error("empty path should not match OriginAS")
	}
}

func TestSetApply(t *testing.T) {
	lp, med := uint32(200), uint32(50)
	nh := netaddr.MustParseAddr("10.9.9.9")
	s := Set{
		LocalPref:    &lp,
		MED:          &med,
		NextHop:      &nh,
		PrependAS:    65000,
		PrependCount: 2,
		AddCommunity: []wire.Community{wire.CommunityFrom(1, 1)},
	}
	in := attrs(wire.NewASPath(100))
	out := s.Apply(in)
	if !out.HasLocalPref || out.LocalPref != 200 {
		t.Error("local-pref not set")
	}
	if !out.HasMED || out.MED != 50 {
		t.Error("MED not set")
	}
	if out.NextHop != nh {
		t.Error("next hop not set")
	}
	if out.ASPath.String() != "65000 65000 100" {
		t.Errorf("as-path = %q", out.ASPath.String())
	}
	if !out.HasCommunity(wire.CommunityFrom(1, 1)) {
		t.Error("community not added")
	}
	// Input untouched.
	if in.HasLocalPref || in.ASPath.Length() != 1 {
		t.Error("Apply mutated its input")
	}
}

func TestSetCommunityOps(t *testing.T) {
	in := attrs(wire.NewASPath(1))
	in.Communities = []wire.Community{wire.CommunityFrom(1, 1), wire.CommunityFrom(2, 2)}

	out := Set{DelCommunity: []wire.Community{wire.CommunityFrom(1, 1)}}.Apply(in)
	if out.HasCommunity(wire.CommunityFrom(1, 1)) || !out.HasCommunity(wire.CommunityFrom(2, 2)) {
		t.Errorf("delete community: %v", out.Communities)
	}

	out = Set{ClearCommunity: true, AddCommunity: []wire.Community{wire.CommunityFrom(3, 3)}}.Apply(in)
	if len(out.Communities) != 1 || out.Communities[0] != wire.CommunityFrom(3, 3) {
		t.Errorf("clear+add community: %v", out.Communities)
	}

	// Adding an existing community is idempotent.
	out = Set{AddCommunity: []wire.Community{wire.CommunityFrom(1, 1)}}.Apply(in)
	if len(out.Communities) != 2 {
		t.Errorf("idempotent add: %v", out.Communities)
	}
}

func TestRouteMapFirstTermWins(t *testing.T) {
	lp := uint32(500)
	m := &RouteMap{Name: "import", Terms: []Term{
		{
			Match:  Match{ASPath: &ASPathCond{Contains: []uint32{666}}},
			Action: Deny,
		},
		{
			Match:  Match{},
			Set:    Set{LocalPref: &lp},
			Action: Permit,
		},
	}}
	p := netaddr.MustParsePrefix("10.0.0.0/8")

	if _, ok := m.Apply(p, attrs(wire.NewASPath(100, 666))); ok {
		t.Error("bogon AS should be denied")
	}
	out, ok := m.Apply(p, attrs(wire.NewASPath(100)))
	if !ok || out.LocalPref != 500 {
		t.Errorf("second term should permit and set local-pref: %v %v", out, ok)
	}
}

func TestRouteMapImplicitDeny(t *testing.T) {
	m := &RouteMap{Name: "strict", Terms: []Term{
		{Match: Match{ASPath: &ASPathCond{NeighborAS: 1}}, Action: Permit},
	}}
	p := netaddr.MustParsePrefix("10.0.0.0/8")
	if _, ok := m.Apply(p, attrs(wire.NewASPath(2))); ok {
		t.Error("unmatched route should be denied")
	}
	m.DefaultPermit = true
	if _, ok := m.Apply(p, attrs(wire.NewASPath(2))); !ok {
		t.Error("DefaultPermit should accept unmatched route")
	}
}

func TestNilRouteMapPermitsAll(t *testing.T) {
	var m *RouteMap
	in := attrs(wire.NewASPath(1))
	out, ok := m.Apply(netaddr.MustParsePrefix("10.0.0.0/8"), in)
	if !ok || !out.Equal(in) {
		t.Error("nil route map must be the identity policy")
	}
}

func TestAcceptAllDenyAll(t *testing.T) {
	p := netaddr.MustParsePrefix("10.0.0.0/8")
	a := attrs(wire.NewASPath(1))
	if _, ok := AcceptAll.Apply(p, a); !ok {
		t.Error("AcceptAll denied")
	}
	if _, ok := DenyAll.Apply(p, a); ok {
		t.Error("DenyAll permitted")
	}
}

func TestMatchConjunction(t *testing.T) {
	med := uint32(10)
	nhp := netaddr.MustParsePrefix("192.0.2.0/24")
	m := Match{
		ASPath:    &ASPathCond{NeighborAS: 100},
		Community: []wire.Community{wire.CommunityFrom(5, 5)},
		NextHop:   &nhp,
		MED:       &med,
	}
	a := attrs(wire.NewASPath(100))
	a.Communities = []wire.Community{wire.CommunityFrom(5, 5)}
	a.HasMED, a.MED = true, 10
	p := netaddr.MustParsePrefix("10.0.0.0/8")
	if !m.Matches(p, &a) {
		t.Fatal("all conditions hold; should match")
	}
	b := a.Clone()
	b.MED = 11
	if m.Matches(p, &b) {
		t.Error("MED mismatch should fail")
	}
	b = a.Clone()
	b.Communities = nil
	if m.Matches(p, &b) {
		t.Error("missing community should fail")
	}
	b = a.Clone()
	b.NextHop = netaddr.MustParseAddr("10.0.0.1")
	if m.Matches(p, &b) {
		t.Error("next hop outside range should fail")
	}
}

// TestRouteMapApplyIdempotent: for maps without prepend/additive actions,
// applying twice equals applying once.
func TestRouteMapApplyIdempotent(t *testing.T) {
	lp := uint32(300)
	m := &RouteMap{Name: "idem", DefaultPermit: true, Terms: []Term{
		{Match: Match{}, Set: Set{LocalPref: &lp}, Action: Permit},
	}}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFromV4(r.Uint32()), 8+r.Intn(25))
		a := attrs(wire.NewASPath(uint32(r.Intn(65535) + 1)))
		once, ok1 := m.Apply(p, a)
		twice, ok2 := m.Apply(p, once)
		if !ok1 || !ok2 || !once.Equal(twice) {
			t.Fatalf("not idempotent for %v", p)
		}
	}
}

func TestRouteMapString(t *testing.T) {
	if AcceptAll.String() == "" || (&RouteMap{Name: "x"}).String() == "" {
		t.Error("String() empty")
	}
	var nilMap *RouteMap
	if nilMap.String() == "" {
		t.Error("nil String() empty")
	}
}
