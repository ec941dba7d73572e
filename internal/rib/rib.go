// Package rib implements the three BGP Routing Information Bases of
// RFC 4271 — the per-peer Adj-RIBs-In, the Loc-RIB, and the per-peer
// Adj-RIBs-Out — together with the decision process that selects the most
// preferred route per prefix. The paper identifies "computing the Loc-RIB
// table according to the messages received from neighbors" as the
// essential BGP operation; this package is that operation.
package rib

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync/atomic"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// Change describes one Loc-RIB best-route transition produced by an
// announce or withdraw. A zero Old (nil Attrs) means the prefix had no
// best route; a zero New means the prefix no longer has one. Old and New
// from the same peer with equal attributes never occurs (no-op
// transitions are suppressed).
type Change struct {
	Prefix netaddr.Prefix
	// ID is the prefix's Loc-RIB id, which indexes every Adj-RIB-Out
	// column of the RIB (AdjOut). When New is zero the id has just been
	// freed, and the next new prefix may take it: a column must apply this
	// change before the RIB's next Announce.
	ID  uint32
	Old Candidate
	New Candidate
}

// String summarizes the change.
func (c Change) String() string {
	switch {
	case c.Old.Attrs == nil && c.New.Attrs != nil:
		return fmt.Sprintf("%v: added via %v", c.Prefix, c.New.Peer.Addr)
	case c.New.Attrs == nil:
		return fmt.Sprintf("%v: removed", c.Prefix)
	default:
		return fmt.Sprintf("%v: replaced", c.Prefix)
	}
}

// slot is one Adj-RIB-In route by peer index. A Loc-RIB entry is a slot
// holding the prefix's best route inline. While more than one peer offers
// the prefix, next links all of its candidates, the best included, through
// the overflow slab in the order their peers first offered them; an
// overflow slot's next links the following one. Link 0 ends a chain: slab
// index 0 is never used.
type slot struct {
	attrs *wire.PathAttrs
	peer  uint32 // index into RIB.peers
	next  uint32 // overflow slab index of the next candidate, 0 at the end
}

// slab is an array of slots whose freed entries a free list, linked
// through next, hands out again. Index 0 is never handed out, so 0 can
// end a list.
type slab struct {
	s    []slot
	free uint32 // head of the free list
}

// alloc stores s in a free entry, growing the array when none is free,
// and returns its index.
func (b *slab) alloc(s slot) uint32 {
	i := b.free
	if i == 0 {
		b.s = append(b.s, s)
		return uint32(len(b.s) - 1)
	}
	b.free = b.s[i].next
	b.s[i] = s
	return i
}

// release puts entry i, referenced from nowhere any more, on the free
// list.
func (b *slab) release(i uint32) {
	b.s[i] = slot{next: b.free}
	b.free = i
}

// RIB is the full routing information base of one BGP speaker. It is not
// safe for concurrent use; the router serializes access through its
// decision goroutine, mirroring the single xorp_rib process in the paper's
// software stack.
//
// The Loc-RIB looks a prefix up once: index maps it to a dense id, and
// the id indexes a slab of entries holding the best candidate inline,
// which announce and withdraw then update in place. The same id indexes every
// Adj-RIB-Out column kept beside this RIB (AdjOut), and the index's own
// key column, which names the prefix of an id. An id is freed when its
// prefix leaves the Loc-RIB and is reused by a later new prefix. Only a
// prefix offered by more than one peer links its candidates, held in a
// second, overflow slab. Peers are stored once, by index, so a candidate
// costs an attrs pointer and two uint32s. Walks range over the index's
// ids and sort them by prefix.
type RIB struct {
	peerIdx   map[netaddr.Addr]uint32 // registered peers
	peers     []PeerInfo              // by index; freed indices hold the zero PeerInfo
	freePeers []uint32                // indices of removed peers, all of whose routes are withdrawn

	index prefixIndex // prefix -> id, for every prefix with a best route
	loc   slab        // Loc-RIB entries by id
	over  slab        // overflow candidates

	decisions uint64 // decision process invocations, for benchmarks

	// unregisteredDrops counts announcements refused because their peer
	// was not registered. Atomic: metrics scrape it while the owning
	// worker runs.
	unregisteredDrops atomic.Uint64
}

// New returns an empty RIB.
func New() *RIB {
	return &RIB{
		peerIdx: make(map[netaddr.Addr]uint32),
		index:   newPrefixIndex(rand.Uint64()),
		loc:     slab{s: make([]slot, 1)},
		over:    slab{s: make([]slot, 1)},
	}
}

// AddPeer registers a peer so its routes can be tracked. Announcements
// from an unregistered peer are dropped and counted (UnregisteredDrops).
// Re-registering an address replaces its PeerInfo for the routes it
// already contributes too, without re-running the decision process; a
// caller changing a peer's tie-break fields removes it first.
func (r *RIB) AddPeer(p PeerInfo) {
	if i, ok := r.peerIdx[p.Addr]; ok {
		r.peers[i] = p
		return
	}
	var i uint32
	if n := len(r.freePeers); n > 0 {
		i, r.freePeers = r.freePeers[n-1], r.freePeers[:n-1]
		r.peers[i] = p
	} else {
		i = uint32(len(r.peers))
		r.peers = append(r.peers, p)
	}
	r.peerIdx[p.Addr] = i
}

// Peers returns the registered peers in address order.
func (r *RIB) Peers() []PeerInfo {
	out := make([]PeerInfo, 0, len(r.peerIdx))
	for _, i := range r.peerIdx {
		out = append(out, r.peers[i])
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
	ch, ok, _ := r.AnnounceHad(peer, prefix, attrs)
	return ch, ok
}

// AnnounceHad is Announce that also reports whether the peer already had
// a candidate for the prefix, which this announcement replaces, so a
// caller counting each peer's prefixes needs no CandidateOf probe first.
func (r *RIB) AnnounceHad(peer netaddr.Addr, prefix netaddr.Prefix, attrs *wire.PathAttrs) (ch Change, changed, had bool) {
	pi, ok := r.peerIdx[peer]
	if !ok {
		r.unregisteredDrops.Add(1)
		return Change{}, false, false
	}
	r.decisions++
	id, at, ok := r.index.find(prefix)
	if !ok {
		e := slot{attrs: attrs, peer: pi}
		id = r.loc.alloc(e)
		r.index.put(at, prefix, id)
		return Change{Prefix: prefix, ID: id, New: r.cand(e)}, true, false
	}
	e := &r.loc.s[id]
	old := *e
	switch {
	case e.next == 0 && e.peer == pi:
		// The sole candidate changed.
		e.attrs = attrs
		had = true
	case e.next == 0:
		// A second peer: both candidates move to the chain, first come first.
		second := r.over.alloc(slot{attrs: attrs, peer: pi})
		e.next = r.over.alloc(slot{attrs: e.attrs, peer: e.peer, next: second})
		r.decide(e)
	default:
		if i := r.find(e.next, pi); i != 0 {
			r.over.s[i].attrs = attrs
			had = true
		} else {
			tail := r.tail(e.next)
			i := r.over.alloc(slot{attrs: attrs, peer: pi})
			r.over.s[tail].next = i
		}
		r.decide(e)
	}
	ch, changed = r.change(prefix, id, old, *e)
	return ch, changed, had
}

// Withdraw removes a peer's route for a prefix and re-runs the decision
// process. Withdrawing a route that was never announced is a no-op.
func (r *RIB) Withdraw(peer netaddr.Addr, prefix netaddr.Prefix) (Change, bool) {
	ch, ok, _ := r.WithdrawHad(peer, prefix)
	return ch, ok
}

// WithdrawHad is Withdraw that also reports whether the peer had a
// candidate for the prefix, that is whether anything was removed.
func (r *RIB) WithdrawHad(peer netaddr.Addr, prefix netaddr.Prefix) (ch Change, changed, had bool) {
	pi, ok := r.peerIdx[peer]
	if !ok {
		return Change{}, false, false
	}
	id, at, ok := r.index.find(prefix)
	if !ok {
		return Change{}, false, false
	}
	e := &r.loc.s[id]
	old := *e
	if e.next == 0 {
		if e.peer != pi {
			return Change{}, false, false
		}
		r.decisions++
		r.index.del(at)
		r.loc.release(id)
		return Change{Prefix: prefix, ID: id, Old: r.cand(old)}, true, true
	}
	if !r.unlink(e, pi) {
		return Change{}, false, false
	}
	r.decisions++
	if i := e.next; r.over.s[i].next == 0 {
		// One candidate is left: it is the best and needs no chain.
		*e = slot{attrs: r.over.s[i].attrs, peer: r.over.s[i].peer}
		r.over.release(i)
	} else {
		r.decide(e)
	}
	ch, changed = r.change(prefix, id, old, *e)
	return ch, changed, true
}

// RemovePeer withdraws every route learned from the peer (session down)
// and unregisters it. The returned changes are in prefix order for
// deterministic downstream processing. The peer's index is reused by a
// later AddPeer only now that no candidate refers to it.
func (r *RIB) RemovePeer(peer netaddr.Addr) []Change {
	pi, ok := r.peerIdx[peer]
	if !ok {
		return nil
	}
	prefixes := r.sortedPrefixes(nil, func(id uint32) bool {
		e := r.loc.s[id]
		return e.peer == pi || r.find(e.next, pi) != 0
	})
	var changes []Change
	for _, p := range prefixes {
		if ch, ok := r.Withdraw(peer, p); ok {
			changes = append(changes, ch)
		}
	}
	delete(r.peerIdx, peer)
	r.peers[pi] = PeerInfo{}
	r.freePeers = append(r.freePeers, pi)
	return changes
}

// cand expands a slot into the Candidate it stands for.
func (r *RIB) cand(s slot) Candidate {
	return Candidate{Peer: r.peers[s.peer], Attrs: s.attrs}
}

// better reports whether slot a's route is preferred over slot b's.
func (r *RIB) better(a, b slot) bool { return Better(r.cand(a), r.cand(b)) }

// change reports the transition between the best before and after one
// decision, suppressing a no-op.
func (r *RIB) change(prefix netaddr.Prefix, id uint32, old, e slot) (Change, bool) {
	if old.peer == e.peer && attrsEqual(old.attrs, e.attrs) {
		return Change{}, false
	}
	return Change{Prefix: prefix, ID: id, Old: r.cand(old), New: r.cand(e)}, true
}

// decide sets e's inline route to Best over its chain, scanned in the
// order the candidates' peers first offered them. Better is not
// transitive once MED applies (MED is compared only between routes from
// the same neighbour AS), so three routes can each beat another and the
// winner depends on that order. Every decision therefore rescans the
// whole chain instead of comparing against the previous winner.
func (r *RIB) decide(e *slot) {
	best := e.next
	for i := r.over.s[best].next; i != 0; i = r.over.s[i].next {
		if r.better(r.over.s[i], r.over.s[best]) {
			best = i
		}
	}
	e.attrs, e.peer = r.over.s[best].attrs, r.over.s[best].peer
}

// find returns the overflow slot of peer pi in the chain starting at i,
// or 0.
func (r *RIB) find(i, pi uint32) uint32 {
	for ; i != 0; i = r.over.s[i].next {
		if r.over.s[i].peer == pi {
			return i
		}
	}
	return 0
}

// tail returns the last slot of the non-empty chain starting at i.
func (r *RIB) tail(i uint32) uint32 {
	for r.over.s[i].next != 0 {
		i = r.over.s[i].next
	}
	return i
}

// unlink removes peer pi's slot from e's overflow chain and frees it,
// reporting whether there was one.
func (r *RIB) unlink(e *slot, pi uint32) bool {
	for link := &e.next; *link != 0; link = &r.over.s[*link].next {
		if i := *link; r.over.s[i].peer == pi {
			*link = r.over.s[i].next
			r.over.release(i)
			return true
		}
	}
	return false
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
	_, c, ok := r.Entry(prefix)
	return c, ok
}

// Entry returns the Loc-RIB id and the current best route of a prefix.
// Callers holding prefixes across RIB changes (catch-up snapshots, MRAI
// windows) re-resolve the id here each time: once its prefix leaves, an
// id may be handed to another.
func (r *RIB) Entry(prefix netaddr.Prefix) (uint32, Candidate, bool) {
	id, _, ok := r.index.find(prefix)
	if !ok {
		return 0, Candidate{}, false
	}
	return id, r.cand(r.loc.s[id]), true
}

// CandidateOf returns the route the peer contributes for a prefix, best
// or not, without copying the prefix's candidate set.
func (r *RIB) CandidateOf(peer netaddr.Addr, prefix netaddr.Prefix) (Candidate, bool) {
	pi, ok := r.peerIdx[peer]
	if !ok {
		return Candidate{}, false
	}
	id, _, ok := r.index.find(prefix)
	if !ok {
		return Candidate{}, false
	}
	e := r.loc.s[id]
	if e.next == 0 && e.peer == pi {
		return r.cand(e), true
	}
	if i := r.find(e.next, pi); i != 0 {
		return r.cand(r.over.s[i]), true
	}
	return Candidate{}, false
}

// LocPrefixesInto appends every prefix with a best route to buf (which
// should come in empty) and returns it sorted. The chunked update-group
// rebuild snapshots the key set here, then re-reads each entry through
// Entry at chunk-processing time so entries that changed after the
// snapshot are never replayed stale.
func (r *RIB) LocPrefixesInto(buf []netaddr.Prefix) []netaddr.Prefix {
	return r.sortedPrefixes(buf, nil)
}

// sortedPrefixes appends to buf the prefixes whose id keep admits (nil:
// every prefix) and returns buf in prefix order: the one order every
// table walk and key snapshot of this package visits in, which is what
// makes advertisement streams and digests deterministic.
func (r *RIB) sortedPrefixes(buf []netaddr.Prefix, keep func(id uint32) bool) []netaddr.Prefix {
	for _, s := range r.index.slots {
		if id := uint32(s); s != 0 && (keep == nil || keep(id)) {
			buf = append(buf, r.index.keys[id])
		}
	}
	slices.SortFunc(buf, netaddr.Prefix.Compare)
	return buf
}

// sortedIDs is sortedPrefixes for walks that read each entry: it
// appends the admitted ids to buf and returns buf in their prefixes'
// order, so a walk reads an entry by its id, not by probing for its
// prefix again.
func (r *RIB) sortedIDs(buf []uint32, keep func(id uint32) bool) []uint32 {
	for _, s := range r.index.slots {
		if id := uint32(s); s != 0 && (keep == nil || keep(id)) {
			buf = append(buf, id)
		}
	}
	keys := r.index.keys
	slices.SortFunc(buf, func(a, b uint32) int { return keys[a].Compare(keys[b]) })
	return buf
}

// Candidates returns all Adj-RIB-In routes for a prefix, in the order
// their peers first offered them, for diagnostics and tests.
func (r *RIB) Candidates(prefix netaddr.Prefix) []Candidate {
	id, _, ok := r.index.find(prefix)
	if !ok {
		return nil
	}
	e := r.loc.s[id]
	if e.next == 0 {
		return []Candidate{r.cand(e)}
	}
	var out []Candidate
	for i := e.next; i != 0; i = r.over.s[i].next {
		out = append(out, r.cand(r.over.s[i]))
	}
	return out
}

// Len returns the number of prefixes with a best route in the Loc-RIB.
func (r *RIB) Len() int { return r.index.n }

// Decisions returns the number of decision-process invocations.
func (r *RIB) Decisions() uint64 { return r.decisions }

// UnregisteredDrops returns how many announcements were dropped because
// their peer was not registered. Nonzero means a lifecycle bug upstream.
// Safe to call from any goroutine.
func (r *RIB) UnregisteredDrops() uint64 { return r.unregisteredDrops.Load() }

// WalkLoc visits every Loc-RIB best route in prefix order until fn returns
// false. The ordering makes Phase 2 advertisement streams deterministic.
func (r *RIB) WalkLoc(fn func(netaddr.Prefix, Candidate) bool) {
	for _, id := range r.sortedIDs(make([]uint32, 0, r.Len()), nil) {
		if !fn(r.index.keys[id], r.cand(r.loc.s[id])) {
			return
		}
	}
}
