package rib

import (
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// fuzzRouteMap builds a route map from fuzz-chosen behavior parameters.
// The names are cosmetic by contract: two maps built from the same
// parameters but different names must produce the same group key.
func fuzzRouteMap(name, termName string, defPermit, deny bool,
	lp, med uint32, useLP, useMED bool,
	prependAS uint32, prependCount uint8,
	prefixOctet, ge, le uint8) *policy.RouteMap {
	set := policy.Set{}
	if useLP {
		v := lp
		set.LocalPref = &v
	}
	if useMED {
		v := med
		set.MED = &v
	}
	if prependCount%4 > 0 {
		set.PrependAS = prependAS
		set.PrependCount = int(prependCount % 4)
	}
	action := policy.Permit
	if deny {
		action = policy.Deny
	}
	var match policy.Match
	if ge%2 == 1 {
		g, l := int(ge%25), int(le%33)
		if l < g {
			g, l = l, g
		}
		match.PrefixList = &policy.PrefixList{
			Name: termName + "-pl",
			Rules: []policy.PrefixRule{{
				Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(prefixOctet, 0, 0, 0), 8),
				GE:     g, LE: l,
				Action: policy.Permit,
			}},
		}
	}
	return &policy.RouteMap{
		Name: name,
		Terms: []policy.Term{{
			Name:   termName,
			Match:  match,
			Set:    set,
			Action: action,
		}},
		DefaultPermit: defPermit,
	}
}

// FuzzGroupKey fuzzes the update-group keying contract:
//
//  1. Behaviorally equal export configurations — identical except for
//     the cosmetic map/term names — always produce identical keys, so
//     peers sharing a policy always share a group.
//  2. Configurations with differing export behavior (a flipped action,
//     a shifted MED, an extra prepend, a different eBGP transform)
//     never share a key, so a group never mixes peers whose streams
//     could diverge.
func FuzzGroupKey(f *testing.F) {
	f.Add(false, false, uint32(100), uint32(50), true, true, uint32(65010), uint8(2), uint8(10), uint8(9), uint8(24), true)
	f.Add(true, false, uint32(0), uint32(0), false, false, uint32(0), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(true, true, uint32(7), uint32(9), true, false, uint32(65020), uint8(1), uint8(192), uint8(3), uint8(17), true)
	f.Fuzz(func(t *testing.T, defPermit, deny bool,
		lp, med uint32, useLP, useMED bool,
		prependAS uint32, prependCount uint8,
		prefixOctet, ge, le uint8, ebgp bool) {

		a := fuzzRouteMap("map-a", "term-a", defPermit, deny, lp, med, useLP, useMED, prependAS, prependCount, prefixOctet, ge, le)
		b := fuzzRouteMap("map-b", "term-b", defPermit, deny, lp, med, useLP, useMED, prependAS, prependCount, prefixOctet, ge, le)
		ka, kb := GroupKeyFor(ebgp, a), GroupKeyFor(ebgp, b)
		if ka != kb {
			t.Fatalf("behaviorally equal configs produced different keys:\n  %s\n  %s", ka, kb)
		}

		// Flip one behavioral knob at a time; every variant must key
		// differently from the original.
		variants := map[string]string{
			"action":         GroupKeyFor(ebgp, fuzzRouteMap("map-c", "term-c", defPermit, !deny, lp, med, useLP, useMED, prependAS, prependCount, prefixOctet, ge, le)),
			"default-permit": GroupKeyFor(ebgp, fuzzRouteMap("map-c", "term-c", !defPermit, deny, lp, med, useLP, useMED, prependAS, prependCount, prefixOctet, ge, le)),
			"med":            GroupKeyFor(ebgp, fuzzRouteMap("map-c", "term-c", defPermit, deny, lp, med+1, useLP, true, prependAS, prependCount, prefixOctet, ge, le)),
			"ebgp":           GroupKeyFor(!ebgp, a),
		}
		if useLP {
			variants["local-pref"] = GroupKeyFor(ebgp, fuzzRouteMap("map-c", "term-c", defPermit, deny, lp+1, med, true, useMED, prependAS, prependCount, prefixOctet, ge, le))
		}
		if prependCount%4 > 0 {
			variants["prepend-count"] = GroupKeyFor(ebgp, fuzzRouteMap("map-c", "term-c", defPermit, deny, lp, med, useLP, useMED, prependAS, prependCount+1, prefixOctet, ge, le))
		}
		for knob, kv := range variants {
			if knob == "med" && useMED && med+1 == med {
				continue // uint32 wrap cannot happen, but keep the guard explicit
			}
			if knob == "prepend-count" && (prependCount+1)%4 == prependCount%4 {
				continue // count wrapped to the same effective prepend depth
			}
			if kv == ka {
				t.Fatalf("differing export behavior (%s) shares a group key: %s", knob, ka)
			}
		}

		// Nil means "export unmodified" — it must never collide with any
		// constructed map's key.
		if nk := GroupKeyFor(ebgp, nil); nk == ka {
			t.Fatalf("nil policy shares a key with a constructed map: %s", ka)
		}
	})
}

// FuzzAdjOutMemberViews checks the one shared table against the model it
// replaced: an independent map[Prefix]*PathAttrs per peer, written with
// the audience rule "never advertise a route back to the peer it came
// from". The subject is one AdjOut column beside a Loc-RIB, written as the
// router's table step writes it: every Loc-RIB change is applied to the
// column under the change's id, so ids freed by withdrawals come back for
// other prefixes. After every operation each present member's view of
// the column must be that member's reference table, entry for entry and
// in prefix order.
//
// Each input byte is one operation: bits 0-2 pick the prefix, bits 3-5
// the originator (four members and one outsider, 0-4) or, at 5-7, a
// membership toggle; bits 6-7 withdraw or pick one of three attribute
// blocks, and for a toggle the member. A member that leaves takes its
// routes with it and is sent nothing; when it rejoins, its table is
// everything it did not originate. When the last member leaves the column
// is dropped, and the first to rejoin gets a fresh one rebuilt from the
// Loc-RIB, as a group partition does.
func FuzzAdjOutMemberViews(f *testing.F) {
	f.Add([]byte{0x40, 0x48, 0x88, 0x00, 0xc1, 0x59, 0x19})
	f.Add([]byte{0x60, 0x60, 0xa0, 0x68, 0x20})
	f.Add([]byte{0x41, 0x8a, 0x63, 0x28, 0x42, 0x28, 0xd5, 0x00})
	f.Add([]byte{0x40, 0x89, 0xd2, 0xe3, 0x28, 0x68, 0xa8, 0xe8, 0x60, 0xa4, 0x04, 0x68, 0x41, 0xa8})
	f.Add([]byte{})
	const members = 4
	addrOf := func(i int) netaddr.Addr { return netaddr.AddrFrom4(10, 0, 0, byte(i+1)) }
	peerOf := func(i int) PeerInfo {
		return PeerInfo{Addr: addrOf(i), ID: addrOf(i), AS: 65001 + uint32(i), EBGP: true}
	}
	blocks := []*wire.PathAttrs{baseAttrs(1), baseAttrs(1, 2), baseAttrs(1, 2, 3)}
	type route struct {
		attrs  *wire.PathAttrs
		origin int
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		loc, table := New(), NewAdjOut()
		for i := 0; i <= members; i++ {
			loc.AddPeer(peerOf(i))
		}
		apply := func(ch Change) {
			if table == nil {
				return
			}
			if ch.New.Attrs != nil {
				table.Advertise(ch.ID, ch.New.Attrs)
			} else {
				table.Withdraw(ch.ID)
			}
		}
		withdraw := func(from int, p netaddr.Prefix) {
			if ch, ok := loc.Withdraw(addrOf(from), p); ok {
				apply(ch)
			}
		}

		routes := map[netaddr.Prefix]route{} // what the speakers announced
		var absent [members]bool
		var ref [members]map[netaddr.Prefix]*wire.PathAttrs
		for m := range ref {
			ref[m] = map[netaddr.Prefix]*wire.PathAttrs{}
		}
		for step, op := range ops {
			p := netaddr.PrefixFrom(netaddr.AddrFrom4(10, op&7, 0, 0), 16)
			who, sel := int(op>>3&7), int(op>>6)
			switch {
			case who > members:
				m := sel
				if !absent[m] {
					for _, ch := range loc.RemovePeer(addrOf(m)) {
						apply(ch)
					}
					for q, rt := range routes {
						if rt.origin == m {
							delete(routes, q)
							for k := range ref {
								delete(ref[k], q)
							}
						}
					}
					absent[m], ref[m] = true, map[netaddr.Prefix]*wire.PathAttrs{}
					if absent == [members]bool{true, true, true, true} {
						table = nil
					}
					break
				}
				loc.AddPeer(peerOf(m))
				absent[m] = false
				if table == nil {
					table = NewAdjOut()
					for _, q := range loc.LocPrefixesInto(nil) {
						id, c, _ := loc.Entry(q)
						table.Advertise(id, c.Attrs)
					}
				}
				for q, rt := range routes {
					if rt.origin != m {
						ref[m][q] = rt.attrs
					}
				}
			case sel == 0:
				if rt, ok := routes[p]; ok {
					withdraw(rt.origin, p)
					delete(routes, p)
					for m := range ref {
						delete(ref[m], p)
					}
				}
			case who < members && absent[who]:
				// An absent member announces nothing.
			default:
				attrs := blocks[sel-1]
				// One candidate per prefix keeps the best route the
				// announced one: the previous holder withdraws first.
				if rt, ok := routes[p]; ok && rt.origin != who {
					withdraw(rt.origin, p)
				}
				if ch, ok := loc.Announce(addrOf(who), p, attrs); ok {
					apply(ch)
				}
				routes[p] = route{attrs: attrs, origin: who}
				for m := range ref {
					if absent[m] || m == who {
						delete(ref[m], p)
					} else {
						ref[m][p] = attrs
					}
				}
			}

			if table == nil {
				continue
			}
			if table.Len() != len(routes) {
				t.Fatalf("step %d: column holds %d entries, the speakers announced %d routes", step, table.Len(), len(routes))
			}
			for m := range ref {
				if absent[m] {
					continue
				}
				n := 0
				var prev netaddr.Prefix
				table.WalkMember(loc, addrOf(m), func(q netaddr.Prefix, a *wire.PathAttrs) bool {
					if n > 0 && prev.Compare(q) >= 0 {
						t.Fatalf("step %d: member %d walked out of prefix order", step, m)
					}
					if want, ok := ref[m][q]; !ok || want != a {
						t.Fatalf("step %d: member %d sees %v -> %p, its own table holds %p (present %v)", step, m, q, a, want, ok)
					}
					prev = q
					n++
					return true
				})
				if n != len(ref[m]) {
					t.Fatalf("step %d: member %d sees %d routes, its own table holds %d", step, m, n, len(ref[m]))
				}
			}
		}
	})
}
