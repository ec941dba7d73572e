// Package rib implements the three BGP Routing Information Bases of
// RFC 4271 — the per-peer Adj-RIBs-In, the Loc-RIB, and the per-peer
// Adj-RIBs-Out — together with the decision process that selects the most
// preferred route per prefix. The paper identifies "computing the Loc-RIB
// table according to the messages received from neighbors" as the
// essential BGP operation; this package is that operation.
package rib

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// Change describes one Loc-RIB best-route transition produced by an
// announce or withdraw. Old == nil means the prefix had no best route; New
// == nil means the prefix no longer has one. Old and New both non-nil with
// equal contents never occurs (no-op transitions are suppressed).
type Change struct {
	Prefix netaddr.Prefix
	Old    *Candidate
	New    *Candidate
}

// String summarizes the change.
func (c Change) String() string {
	switch {
	case c.Old == nil && c.New != nil:
		return fmt.Sprintf("%v: added via %v", c.Prefix, c.New.Peer.Addr)
	case c.Old != nil && c.New == nil:
		return fmt.Sprintf("%v: removed", c.Prefix)
	default:
		return fmt.Sprintf("%v: replaced", c.Prefix)
	}
}

type locEntry struct {
	cands []Candidate // one per peer, unordered
	best  *Candidate  // snapshot of the current best route, nil when none
}

// RIB is the full routing information base of one BGP speaker. It is not
// safe for concurrent use; the router serializes access through its
// decision goroutine, mirroring the single xorp_rib process in the paper's
// software stack.
type RIB struct {
	peers map[netaddr.Addr]PeerInfo
	loc   map[netaddr.Prefix]*locEntry

	decisions uint64 // decision process invocations, for benchmarks

	// unregisteredDrops counts announcements refused because their peer
	// was not registered. Atomic: metrics scrape it while the owning
	// worker runs.
	unregisteredDrops atomic.Uint64
}

// New returns an empty RIB.
func New() *RIB {
	return &RIB{
		peers: make(map[netaddr.Addr]PeerInfo),
		loc:   make(map[netaddr.Prefix]*locEntry),
	}
}

// AddPeer registers a peer so its routes can be tracked. Announcements
// from an unregistered peer are dropped and counted (UnregisteredDrops).
func (r *RIB) AddPeer(p PeerInfo) {
	r.peers[p.Addr] = p
}

// Peers returns the registered peers in address order.
func (r *RIB) Peers() []PeerInfo {
	out := make([]PeerInfo, 0, len(r.peers))
	for _, p := range r.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// Announce records a route from a peer's Adj-RIB-In (post-import-policy)
// and runs the decision process for the prefix. attrs should be a
// canonical pointer (wire.Intern) shared across prefixes with the same
// path; the RIB stores it without copying. It returns the Loc-RIB change,
// if any. An announcement from an unregistered peer means the caller's
// peer lifecycle is broken; a router under test must not die of it, so
// the route is dropped and counted instead.
func (r *RIB) Announce(peer netaddr.Addr, prefix netaddr.Prefix, attrs *wire.PathAttrs) (Change, bool) {
	pi, ok := r.peers[peer]
	if !ok {
		r.unregisteredDrops.Add(1)
		return Change{}, false
	}
	e := r.loc[prefix]
	if e == nil {
		e = &locEntry{}
		r.loc[prefix] = e
	}
	cand := Candidate{Peer: pi, Attrs: attrs}
	replaced := false
	for i := range e.cands {
		if e.cands[i].Peer.Addr == peer {
			e.cands[i] = cand
			replaced = true
			break
		}
	}
	if !replaced {
		e.cands = append(e.cands, cand)
	}
	return r.decide(prefix, e)
}

// Withdraw removes a peer's route for a prefix and re-runs the decision
// process. Withdrawing a route that was never announced is a no-op.
func (r *RIB) Withdraw(peer netaddr.Addr, prefix netaddr.Prefix) (Change, bool) {
	e := r.loc[prefix]
	if e == nil {
		return Change{}, false
	}
	found := false
	for i := range e.cands {
		if e.cands[i].Peer.Addr == peer {
			e.cands = append(e.cands[:i], e.cands[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return Change{}, false
	}
	return r.decide(prefix, e)
}

// RemovePeer withdraws every route learned from the peer (session down)
// and unregisters it. The returned changes are in prefix order for
// deterministic downstream processing.
func (r *RIB) RemovePeer(peer netaddr.Addr) []Change {
	prefixes := sortedPrefixes(nil, r.loc, func(e *locEntry) bool {
		return slices.ContainsFunc(e.cands, func(c Candidate) bool { return c.Peer.Addr == peer })
	})
	var changes []Change
	for _, p := range prefixes {
		if ch, ok := r.Withdraw(peer, p); ok {
			changes = append(changes, ch)
		}
	}
	delete(r.peers, peer)
	return changes
}

// decide recomputes the best route for a prefix and reports the transition.
func (r *RIB) decide(prefix netaddr.Prefix, e *locEntry) (Change, bool) {
	r.decisions++
	old := e.best
	idx := Best(e.cands)
	if idx < 0 {
		e.best = nil
		delete(r.loc, prefix)
	} else {
		c := e.cands[idx]
		e.best = &c
	}
	switch {
	case old == nil && e.best == nil:
		return Change{}, false
	case old != nil && e.best != nil &&
		old.Peer.Addr == e.best.Peer.Addr && attrsEqual(old.Attrs, e.best.Attrs):
		return Change{}, false
	}
	return Change{Prefix: prefix, Old: old, New: e.best}, true
}

// attrsEqual compares two attribute pointers: pointer equality first (the
// common case with interned attribute sets), deep comparison otherwise.
func attrsEqual(a, b *wire.PathAttrs) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Equal(*b)
}

// Lookup returns the current best route for a prefix.
func (r *RIB) Lookup(prefix netaddr.Prefix) (Candidate, bool) {
	e := r.loc[prefix]
	if e == nil || e.best == nil {
		return Candidate{}, false
	}
	return *e.best, true
}

// Origin returns the peer the current best route for prefix was learned
// from, the zero Addr when there is none. An Adj-RIB-Out entry is the
// export of that route, so this is also the entry's originator.
func (r *RIB) Origin(prefix netaddr.Prefix) netaddr.Addr {
	if e := r.loc[prefix]; e != nil && e.best != nil {
		return e.best.Peer.Addr
	}
	return netaddr.Addr{}
}

// LocPrefixesInto appends every prefix with a best route to buf (which
// should come in empty) and returns it sorted. The chunked update-group
// rebuild snapshots the key set here, then re-reads each entry through
// Lookup at chunk-processing time so entries that changed after the
// snapshot are never replayed stale.
func (r *RIB) LocPrefixesInto(buf []netaddr.Prefix) []netaddr.Prefix {
	return sortedPrefixes(buf, r.loc, hasBest)
}

func hasBest(e *locEntry) bool { return e.best != nil }

// sortedPrefixes appends to buf the keys of m whose value keep admits
// (nil: every key) and returns buf in prefix order: the one order every
// table walk and key snapshot of this package visits in, which is what
// makes advertisement streams and digests deterministic.
func sortedPrefixes[V any](buf []netaddr.Prefix, m map[netaddr.Prefix]V, keep func(V) bool) []netaddr.Prefix {
	for p, v := range m {
		if keep == nil || keep(v) {
			buf = append(buf, p)
		}
	}
	slices.SortFunc(buf, netaddr.Prefix.Compare)
	return buf
}

// Candidates returns all Adj-RIB-In routes for a prefix (unspecified
// order), for diagnostics and tests.
func (r *RIB) Candidates(prefix netaddr.Prefix) []Candidate {
	e := r.loc[prefix]
	if e == nil {
		return nil
	}
	return append([]Candidate(nil), e.cands...)
}

// Len returns the number of prefixes with a best route in the Loc-RIB.
func (r *RIB) Len() int { return len(r.loc) }

// Decisions returns the number of decision-process invocations.
func (r *RIB) Decisions() uint64 { return r.decisions }

// UnregisteredDrops returns how many announcements were dropped because
// their peer was not registered. Nonzero means a lifecycle bug upstream.
// Safe to call from any goroutine.
func (r *RIB) UnregisteredDrops() uint64 { return r.unregisteredDrops.Load() }

// WalkLoc visits every Loc-RIB best route in prefix order until fn returns
// false. The ordering makes Phase 2 advertisement streams deterministic.
func (r *RIB) WalkLoc(fn func(netaddr.Prefix, Candidate) bool) {
	for _, p := range sortedPrefixes(make([]netaddr.Prefix, 0, len(r.loc)), r.loc, hasBest) {
		if !fn(p, *r.loc[p].best) {
			return
		}
	}
}
