package rib

import (
	"fmt"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// GroupRoute is one entry of a group's shared Adj-RIB-Out: the exported
// attributes plus the BGP identifier of the peer the route was learned
// from. A member's own view of the group table is every entry whose
// Origin differs from the member — the per-peer
// "don't advertise a route back to its originator" rule, applied at read
// time instead of being baked into per-peer copies.
type GroupRoute struct {
	Attrs  *wire.PathAttrs
	Origin netaddr.Addr
}

// GroupAdjOut is the shared Adj-RIB-Out of an update group: one table for
// every member that shares an export policy. It replaces len(members)
// per-peer AdjOut maps with a single map of (attrs, origin) pairs, so
// group emission memory is O(prefixes), not O(peers × prefixes).
//
// Like AdjOut, attribute sets are held by canonical pointer (wire.Intern)
// and change detection is pointer-first.
type GroupAdjOut struct {
	routes map[netaddr.Prefix]GroupRoute
}

// NewGroupAdjOut returns an empty shared Adj-RIB-Out.
func NewGroupAdjOut() *GroupAdjOut {
	return &GroupAdjOut{routes: make(map[netaddr.Prefix]GroupRoute)}
}

// Advertise records that attrs (learned from origin) are the group's
// current export for prefix. It returns the previous entry and reports
// whether the table changed — i.e. whether any member's view may need an
// UPDATE.
func (o *GroupAdjOut) Advertise(prefix netaddr.Prefix, attrs *wire.PathAttrs, origin netaddr.Addr) (old GroupRoute, had, changed bool) {
	old, had = o.routes[prefix]
	if had && old.Origin == origin && attrsEqual(old.Attrs, attrs) {
		return old, had, false
	}
	o.routes[prefix] = GroupRoute{Attrs: attrs, Origin: origin}
	return old, had, true
}

// Withdraw removes prefix from the group table, returning the entry the
// group held (if any).
func (o *GroupAdjOut) Withdraw(prefix netaddr.Prefix) (old GroupRoute, had bool) {
	old, had = o.routes[prefix]
	if had {
		delete(o.routes, prefix)
	}
	return old, had
}

// Lookup returns the group's current entry for prefix.
func (o *GroupAdjOut) Lookup(prefix netaddr.Prefix) (GroupRoute, bool) {
	r, ok := o.routes[prefix]
	return r, ok
}

// Len returns the number of prefixes in the group table.
func (o *GroupAdjOut) Len() int { return len(o.routes) }

// MemberLen returns the number of prefixes visible to the given member:
// every entry not originated by the member itself.
func (o *GroupAdjOut) MemberLen(member netaddr.Addr) int {
	n := 0
	for _, r := range o.routes {
		if r.Origin != member {
			n++
		}
	}
	return n
}

// PrefixesInto appends every prefix in the group table to buf (which
// should come in empty) and returns it sorted: the key snapshot a chunked
// member catch-up replay walks, re-reading each entry via Lookup at
// chunk time.
func (o *GroupAdjOut) PrefixesInto(buf []netaddr.Prefix) []netaddr.Prefix {
	return sortedPrefixes(buf, o.routes, nil)
}

// Walk visits group entries in prefix order until fn returns false.
func (o *GroupAdjOut) Walk(fn func(netaddr.Prefix, GroupRoute) bool) {
	for _, p := range sortedPrefixes(make([]netaddr.Prefix, 0, len(o.routes)), o.routes, nil) {
		if !fn(p, o.routes[p]) {
			return
		}
	}
}

// WalkMember visits, in prefix order, the entries visible to the given
// member — the member's logical Adj-RIB-Out.
func (o *GroupAdjOut) WalkMember(member netaddr.Addr, fn func(netaddr.Prefix, *wire.PathAttrs) bool) {
	o.Walk(func(p netaddr.Prefix, r GroupRoute) bool {
		if r.Origin == member {
			return true
		}
		return fn(p, r.Attrs)
	})
}

// GroupKeyFor returns the canonical update-group key for a peer: peers
// share a group exactly when they receive byte-identical export streams,
// which requires the same eBGP-vs-iBGP treatment (next-hop-self, AS
// prepend, LOCAL_PREF stripping, split-horizon scope) and a
// behavior-equal export route map. Policy names are excluded from the
// key (see policy.CanonicalKey).
func GroupKeyFor(ebgp bool, export *policy.RouteMap) string {
	return fmt.Sprintf("ebgp=%v|%s", ebgp, policy.CanonicalKey(export))
}
