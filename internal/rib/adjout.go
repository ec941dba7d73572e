package rib

import (
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// AdjOut is the Adj-RIB-Out for one peer: the routes the local speaker has
// advertised to it. It deduplicates advertisements so the session layer
// only sends UPDATEs that actually change the peer's view. Attribute sets
// are held by canonical pointer (wire.Intern), so one AdjOut entry costs a
// map slot, not a copy of the attribute block, and the dedupe check is a
// pointer comparison for interned attrs.
type AdjOut struct {
	routes map[netaddr.Prefix]*wire.PathAttrs
}

// NewAdjOut returns an empty Adj-RIB-Out.
func NewAdjOut() *AdjOut {
	return &AdjOut{routes: make(map[netaddr.Prefix]*wire.PathAttrs)}
}

// Advertise records that attrs were advertised for prefix. It returns
// what the peer held before (nil: nothing) and reports whether attrs
// differ from it (i.e. whether an UPDATE must be sent).
func (o *AdjOut) Advertise(prefix netaddr.Prefix, attrs *wire.PathAttrs) (old *wire.PathAttrs, changed bool) {
	old, had := o.routes[prefix]
	if had && attrsEqual(old, attrs) {
		return old, false
	}
	o.routes[prefix] = attrs
	return old, true
}

// Withdraw records the withdrawal of a prefix, returning what the peer
// held and reporting whether it held anything.
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

// Walk visits advertised routes in prefix order until fn returns false.
func (o *AdjOut) Walk(fn func(netaddr.Prefix, *wire.PathAttrs) bool) {
	for _, p := range sortedPrefixes(make([]netaddr.Prefix, 0, len(o.routes)), o.routes, nil) {
		if !fn(p, o.routes[p]) {
			return
		}
	}
}
