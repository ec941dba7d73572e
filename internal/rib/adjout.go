package rib

import (
	"fmt"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// AdjOut is the Adj-RIB-Out of an update group: what the local speaker
// currently exports, once, for every member of the group — a group of
// one being a single peer's table. It deduplicates advertisements so the
// session layer only sends UPDATEs that actually change a member's view.
// Attribute sets are held by canonical pointer (wire.Intern), so an entry
// costs a map slot, not a copy of the attribute block, and the dedupe
// check is a pointer comparison for interned attrs.
//
// An entry does not say which peer the route was learned from: it is the
// export of the Loc-RIB's best route for its prefix, so the originator
// is that route's peer (RIB.Origin). A member's own view is every entry
// it did not originate (WalkMember) — "never advertise a route back to
// the peer it came from", applied when the table is read.
type AdjOut struct {
	routes map[netaddr.Prefix]*wire.PathAttrs
}

// NewAdjOut returns an empty Adj-RIB-Out.
func NewAdjOut() *AdjOut {
	return &AdjOut{routes: make(map[netaddr.Prefix]*wire.PathAttrs)}
}

// Advertise records that attrs are the current export for prefix. It
// returns what the table held before (nil: nothing) and reports whether
// attrs differ from it.
func (o *AdjOut) Advertise(prefix netaddr.Prefix, attrs *wire.PathAttrs) (old *wire.PathAttrs, changed bool) {
	old, had := o.routes[prefix]
	if had && attrsEqual(old, attrs) {
		return old, false
	}
	o.routes[prefix] = attrs
	return old, true
}

// Withdraw removes prefix from the table, returning what it held and
// reporting whether it held anything.
func (o *AdjOut) Withdraw(prefix netaddr.Prefix) (old *wire.PathAttrs, had bool) {
	old, had = o.routes[prefix]
	if had {
		delete(o.routes, prefix)
	}
	return old, had
}

// Lookup returns the attributes last advertised for prefix.
func (o *AdjOut) Lookup(prefix netaddr.Prefix) (*wire.PathAttrs, bool) {
	a, ok := o.routes[prefix]
	return a, ok
}

// Len returns the number of advertised prefixes.
func (o *AdjOut) Len() int { return len(o.routes) }

// PrefixesInto appends every prefix in the table to buf (which should
// come in empty) and returns it sorted: the key snapshot a chunked member
// replay walks, re-reading each entry via Lookup at chunk time.
func (o *AdjOut) PrefixesInto(buf []netaddr.Prefix) []netaddr.Prefix {
	return sortedPrefixes(buf, o.routes, nil)
}

// Walk visits advertised routes in prefix order until fn returns false.
func (o *AdjOut) Walk(fn func(netaddr.Prefix, *wire.PathAttrs) bool) {
	for _, p := range o.PrefixesInto(make([]netaddr.Prefix, 0, len(o.routes))) {
		if !fn(p, o.routes[p]) {
			return
		}
	}
}

// WalkMember visits, in prefix order, the entries visible to member — its
// logical Adj-RIB-Out: every entry whose originator, as origin reports
// it, is some other peer.
func (o *AdjOut) WalkMember(member netaddr.Addr, origin func(netaddr.Prefix) netaddr.Addr, fn func(netaddr.Prefix, *wire.PathAttrs) bool) {
	o.Walk(func(p netaddr.Prefix, attrs *wire.PathAttrs) bool {
		return origin(p) == member || fn(p, attrs)
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
