package rib

import (
	"fmt"
	"slices"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// AdjOut is the Adj-RIB-Out of an update group: what the local speaker
// currently exports, once, for every member of the group — a group of
// one being a single peer's table. It deduplicates advertisements so the
// session layer only sends UPDATEs that actually change a member's view.
//
// The table is a column beside one RIB: entry id holds the export of
// that RIB's Loc-RIB entry id (Change.ID), so a hit is one load, not a
// hash probe, and an entry costs one pointer. Attribute sets are held by
// canonical pointer (wire.Intern), so the dedupe check is a pointer
// comparison for interned attrs. A column stays aligned with its RIB only
// if it applies every change of an id that leaves the Loc-RIB (a withdraw
// of that id) before the RIB's next Announce, which may hand the id to
// another prefix; a column that stops following the changes must be
// dropped, not resumed.
//
// An entry does not say which peer the route was learned from: it is the
// export of the Loc-RIB's best route for its prefix, so the originator
// is that route's peer. A member's own view is every entry it did not
// originate (WalkMember) — "never advertise a route back to the peer it
// came from", applied when the table is read.
type AdjOut struct {
	col []*wire.PathAttrs // by Loc-RIB id; nil: not advertised
	n   int               // non-nil entries
}

// NewAdjOut returns an empty Adj-RIB-Out.
func NewAdjOut() *AdjOut { return &AdjOut{} }

// Advertise records that attrs are the current export for Loc-RIB entry
// id. It returns what the table held before (nil: nothing) and reports
// whether attrs differ from it.
func (o *AdjOut) Advertise(id uint32, attrs *wire.PathAttrs) (old *wire.PathAttrs, changed bool) {
	if n := len(o.col); int(id) >= n {
		o.col = slices.Grow(o.col, int(id)+1-n)[:id+1]
		clear(o.col[n:])
	}
	old = o.col[id]
	if attrsEqual(old, attrs) {
		return old, false
	}
	if old == nil {
		o.n++
	}
	o.col[id] = attrs
	return old, true
}

// Withdraw removes entry id from the table, returning what it held and
// reporting whether it held anything.
func (o *AdjOut) Withdraw(id uint32) (old *wire.PathAttrs, had bool) {
	if int(id) >= len(o.col) || o.col[id] == nil {
		return nil, false
	}
	old, o.col[id] = o.col[id], nil
	o.n--
	return old, true
}

// Lookup returns the attributes last advertised for Loc-RIB entry id.
func (o *AdjOut) Lookup(id uint32) (*wire.PathAttrs, bool) {
	if int(id) >= len(o.col) {
		return nil, false
	}
	a := o.col[id]
	return a, a != nil
}

// Len returns the number of advertised prefixes.
func (o *AdjOut) Len() int { return o.n }

// PrefixesInto appends every prefix the table holds, named through loc,
// the RIB whose ids index it, to buf (which should come in empty) and
// returns it sorted: the key snapshot a chunked member replay walks,
// re-resolving each prefix's id and entry at chunk time.
func (o *AdjOut) PrefixesInto(loc *RIB, buf []netaddr.Prefix) []netaddr.Prefix {
	return loc.sortedPrefixes(buf, func(id uint32) bool {
		_, ok := o.Lookup(id)
		return ok
	})
}

// WalkMember visits, in prefix order, the entries visible to member — its
// logical Adj-RIB-Out: every entry whose originator, the peer of loc's
// best route for the prefix, is some other peer.
func (o *AdjOut) WalkMember(loc *RIB, member netaddr.Addr, fn func(netaddr.Prefix, *wire.PathAttrs) bool) {
	ids := loc.sortedIDs(make([]uint32, 0, o.n), func(id uint32) bool {
		_, ok := o.Lookup(id)
		return ok
	})
	for _, id := range ids {
		if loc.peers[loc.loc.s[id].peer].Addr == member {
			continue
		}
		if !fn(loc.index.keys[id], o.col[id]) {
			return
		}
	}
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
