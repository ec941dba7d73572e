package policy

import (
	"math/rand"
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// Small value pools, so that random terms and random routes meet often.
var (
	randASNs         = []uint32{1, 2, 3}
	randCommunities  = []wire.Community{wire.CommunityFrom(1, 1), wire.CommunityFrom(1, 2), wire.CommunityFrom(2, 2)}
	randRulePrefixes = []netaddr.Prefix{
		netaddr.MustParsePrefix("10.0.0.0/8"),
		netaddr.MustParsePrefix("10.64.0.0/10"),
		netaddr.MustParsePrefix("0.0.0.0/0"),
		netaddr.MustParsePrefix("2001:db8::/32"),
		netaddr.MustParsePrefix("2001:db8:8000::/33"),
	}
	randNextHops = []netaddr.Addr{
		netaddr.MustParseAddr("192.0.2.1"),
		netaddr.MustParseAddr("192.0.2.200"),
		netaddr.MustParseAddr("2001:db8::1"),
		netaddr.MustParseAddr("2001:db8:1::1"),
	}
	randNextHopRanges = []netaddr.Prefix{
		netaddr.MustParsePrefix("192.0.2.0/25"),
		netaddr.MustParsePrefix("2001:db8::/48"),
	}
)

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func u32p(v uint32) *uint32 { return &v }

// randBound draws a prefix-rule length bound for rule prefix p: unset,
// or a length between p's and the family's full length.
func randBound(rng *rand.Rand, p netaddr.Prefix) int {
	if rng.Intn(2) == 0 {
		return 0
	}
	return p.Len() + rng.Intn(p.Bits()-p.Len()+1)
}

// randRouteMap draws a route map over every Match kind — prefix list,
// AS path, community, MED and next hop — with permit and deny terms
// (and permit and deny prefix rules) and either default.
func randRouteMap(rng *rand.Rand) *RouteMap {
	m := &RouteMap{Name: "rand", DefaultPermit: rng.Intn(2) == 0}
	for range rng.Intn(5) {
		var t Term
		if rng.Intn(4) == 0 {
			t.Action = Deny
		}
		if rng.Intn(2) == 0 {
			l := &PrefixList{Name: "rand"}
			for range 1 + rng.Intn(3) {
				p := pick(rng, randRulePrefixes)
				r := PrefixRule{Prefix: p, GE: randBound(rng, p), LE: randBound(rng, p)}
				if rng.Intn(4) == 0 {
					r.Action = Deny
				}
				l.Rules = append(l.Rules, r)
			}
			t.Match.PrefixList = l
		}
		if rng.Intn(3) == 0 {
			t.Match.ASPath = &ASPathCond{NeighborAS: pick(rng, randASNs), MaxLen: rng.Intn(4)}
		}
		if rng.Intn(3) == 0 {
			t.Match.Community = []wire.Community{pick(rng, randCommunities)}
		}
		if rng.Intn(4) == 0 {
			t.Match.MED = u32p(uint32(rng.Intn(3)))
		}
		if rng.Intn(4) == 0 {
			nh := pick(rng, randNextHopRanges)
			t.Match.NextHop = &nh
		}
		if rng.Intn(2) == 0 {
			t.Set.LocalPref = u32p(uint32(100 + rng.Intn(3)))
		}
		if rng.Intn(2) == 0 {
			t.Set.MED = u32p(uint32(rng.Intn(3)))
		}
		if rng.Intn(4) == 0 {
			nh := pick(rng, randNextHops)
			t.Set.NextHop = &nh
		}
		if rng.Intn(3) == 0 {
			t.Set.PrependAS, t.Set.PrependCount = pick(rng, randASNs), 1+rng.Intn(2)
		}
		if rng.Intn(3) == 0 {
			t.Set.AddCommunity = []wire.Community{pick(rng, randCommunities)}
		}
		if rng.Intn(3) == 0 {
			t.Set.DelCommunity = []wire.Community{pick(rng, randCommunities)}
		}
		t.Set.ClearCommunity = rng.Intn(5) == 0
		m.Terms = append(m.Terms, t)
	}
	return m
}

// randAttrs draws one attribute block for routes of family v6 or v4.
func randAttrs(rng *rand.Rand, v6 bool) wire.PathAttrs {
	path := make([]uint32, 1+rng.Intn(4))
	for i := range path {
		path[i] = pick(rng, randASNs)
	}
	nh := randNextHops[rng.Intn(2)]
	if v6 {
		nh = randNextHops[2+rng.Intn(2)]
	}
	a := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(path...), nh)
	if rng.Intn(2) == 0 {
		a.HasMED, a.MED = true, uint32(rng.Intn(3))
	}
	for _, c := range randCommunities {
		if rng.Intn(2) == 0 {
			a.Communities = append(a.Communities, c)
		}
	}
	return a
}

// randPrefix draws a route prefix, mostly inside the rule prefixes.
func randPrefix(rng *rand.Rand, v6 bool) netaddr.Prefix {
	if v6 {
		base := netaddr.MustParseAddr("2001:db8::")
		if rng.Intn(4) == 0 {
			base = netaddr.MustParseAddr("2001:db9::")
		}
		a := netaddr.AddrFrom128(base.Hi()|rng.Uint64()&0xffff_ffff, rng.Uint64())
		return netaddr.PrefixFrom(a, 32+rng.Intn(97))
	}
	a := rng.Uint32()
	if rng.Intn(4) != 0 {
		a = 10<<24 | a&0xff_ffff
	}
	return netaddr.PrefixFrom(netaddr.AddrFromV4(a), rng.Intn(33))
}

// firstMatchApply is the route-map semantics written out directly: the
// first term whose Match holds decides; a permit term transforms, a deny
// term rejects, and no match falls to the default.
func firstMatchApply(m *RouteMap, p netaddr.Prefix, a wire.PathAttrs) (wire.PathAttrs, bool) {
	if m == nil {
		return a, true
	}
	for _, t := range m.Terms {
		if t.Match.Matches(p, &a) {
			if t.Action == Deny {
				return a, false
			}
			return t.Set.Apply(a), true
		}
	}
	return a, m.DefaultPermit
}

// checkDecideTransform checks one map on one attribute block shared by
// several prefixes, the way an UPDATE carries them: Apply agrees with
// the first-match semantics, Decide leaves the attributes untouched and
// agrees with Apply on acceptance, Apply equals Transform(Decide), and —
// what lets the router memoize — every prefix that selects the same term
// leaves with the same attributes.
func checkDecideTransform(t *testing.T, m *RouteMap, a wire.PathAttrs, prefixes []netaddr.Prefix) {
	t.Helper()
	before := a.Clone()
	memo := map[int]wire.PathAttrs{}
	for _, p := range prefixes {
		got, ok := m.Apply(p, a)
		want, wantOK := firstMatchApply(m, p, a)
		if ok != wantOK || !got.Equal(want) {
			t.Fatalf("%v %v: Apply = %+v, %v; first match gives %+v, %v", m, p, got, ok, want, wantOK)
		}
		term, accept := m.Decide(p, &a)
		if !a.Equal(before) {
			t.Fatalf("%v %v: Decide modified the attributes", m, p)
		}
		if accept != ok {
			t.Fatalf("%v %v: Decide accept = %v, Apply accept = %v", m, p, accept, ok)
		}
		if out := m.Transform(term, a); !out.Equal(got) {
			t.Fatalf("%v %v: Transform(%d) = %+v, Apply = %+v", m, p, term, out, got)
		}
		if term < 0 && !got.Equal(a) {
			t.Fatalf("%v %v: no term matched but the attributes changed", m, p)
		}
		if !accept {
			continue
		}
		if first, seen := memo[term]; !seen {
			memo[term] = got
		} else if !first.Equal(got) {
			t.Fatalf("%v %v: term %d gives %+v, earlier prefix got %+v", m, p, term, got, first)
		}
	}
	if !a.Equal(before) {
		t.Fatal("Apply or Transform modified the attributes")
	}
}

func TestDecideTransformEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		m := randRouteMap(rng)
		if i%50 == 0 {
			m = nil
		}
		v6 := i%2 == 1
		prefixes := make([]netaddr.Prefix, 32)
		for j := range prefixes {
			prefixes[j] = randPrefix(rng, v6)
		}
		checkDecideTransform(t, m, randAttrs(rng, v6), prefixes)
	}
}

func TestDecideNilMap(t *testing.T) {
	var m *RouteMap
	a := attrs(wire.NewASPath(1))
	if term, ok := m.Decide(netaddr.MustParsePrefix("10.0.0.0/8"), &a); term != -1 || !ok {
		t.Fatalf("nil map decides (%d, %v), want (-1, true)", term, ok)
	}
}

func FuzzDecideTransform(f *testing.F) {
	f.Add(int64(1), uint64(0x0a000000), uint8(8), false)
	f.Add(int64(2), uint64(0x20010db800010000), uint8(48), true)
	f.Fuzz(func(t *testing.T, seed int64, addr uint64, plen uint8, v6 bool) {
		rng := rand.New(rand.NewSource(seed))
		var p netaddr.Prefix
		if v6 {
			p = netaddr.PrefixFrom(netaddr.AddrFrom128(addr, 0), int(plen%129))
		} else {
			p = netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(addr)), int(plen%33))
		}
		checkDecideTransform(t, randRouteMap(rng), randAttrs(rng, v6), []netaddr.Prefix{p, randPrefix(rng, v6), p})
	})
}
