package core

import (
	"slices"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// This file is the emission pipeline: how a Loc-RIB change (Phase 2 of
// the paper's method, the router re-advertising to Speaker 2) becomes
// UPDATEs on a session. There is one of each stage, and one table kind:
//
//	update group → export transform → table step → emit buffer (or, with
//	MRAI, the pending set) → member views → run packer → sink
//
// Every peer is a member of an update group (updategroup.go) and is
// emitted from the group's one Adj-RIB-Out; a peer that shares its export
// treatment with nobody is a group of one. The sink a run ends in is read
// off the membership, not configured: a wire.Update on the peer's
// out-queue for a stream with one recipient, one framed UPDATE in bytes
// of its own, marshaled once and queued to each, for a stream several
// members share.

// exportKey keys the memoized export transform: the canonical input
// attrs, the source session type and the export term Decide chose (-1:
// none matched, or no policy). Everything else the transform reads is
// fixed for the group.
type exportKey struct {
	attrs   *wire.PathAttrs
	srcEBGP bool
	term    int
}

// advert is one end of a table transition: what the group's table held
// for a prefix (nil attrs: nothing) and the peer the route was learned
// from. The table itself stores no originator (see rib.AdjOut); a
// transition takes its two from the Loc-RIB change that caused it.
//
// Transitions, the MRAI pending set and catch-up snapshots name a prefix,
// never its Loc-RIB id: they outlive the batch that made them, and an id
// freed in between may belong to another prefix by the time they are read.
type advert struct {
	attrs  *wire.PathAttrs
	origin netaddr.Addr
}

// exportRoute applies split horizon, export policy and the standard eBGP
// transformations (own-AS prepend, next-hop-self) for a route toward a
// group, returning an interned canonical pointer. None of it depends on
// an individual recipient, which is why a group's members can share the
// result. Only the export policy's choice of term depends on the prefix,
// so the transform is memoized per (input attrs, source session type,
// term): the per-prefix clone+prepend+intern collapses into a map hit
// after first sight.
func (r *Router) exportRoute(si int, g *updateGroup, p netaddr.Prefix, c rib.Candidate) (*wire.PathAttrs, bool) {
	// Never export a family the session did not negotiate.
	if !g.afis[p.Family()] {
		return nil, false
	}
	// iBGP split-horizon: do not re-advertise iBGP routes to iBGP peers.
	if !c.Peer.EBGP && !g.ebgp {
		return nil, false
	}
	term, ok := g.export.Decide(p, c.Attrs)
	if !ok {
		return nil, false
	}
	cache := g.shards[si].exportCache
	key := exportKey{attrs: c.Attrs, srcEBGP: c.Peer.EBGP, term: term}
	if out, ok := cache[key]; ok {
		return out, true
	}
	// attrs may share slices with the canonical block: only whole fields
	// are replaced below (Prepend builds a new path), and Intern copies
	// what it keeps.
	attrs := g.export.Transform(term, *c.Attrs)
	if g.ebgp {
		attrs.ASPath = attrs.ASPath.Prepend(r.cfg.AS)
		attrs.NextHop, attrs.HasNextHop = r.nextHopSelf(attrs), true
		// LOCAL_PREF is not sent on eBGP sessions.
		attrs.HasLocalPref, attrs.LocalPref = false, 0
	}
	out := r.interner.Intern(attrs)
	cache[key] = out
	return out, true
}

// nextHopSelf picks the next-hop-self address matching the route's
// family: a v6 route keeps a v6 next hop (it rides MP_REACH_NLRI on the
// wire), everything else gets the classic v4 next hop. The route family
// is read from the incoming next hop, which matches the NLRI family on
// every path the router builds.
func (r *Router) nextHopSelf(a wire.PathAttrs) netaddr.Addr {
	if a.HasNextHop && a.NextHop.Is6() {
		return r.cfg.NextHop6
	}
	return r.cfg.NextHop
}

// snapshotEmitTargets refreshes the shard's scratch list of update
// groups for one work batch, so r.mu stays off the per-prefix path. The
// registry holds only groups with a registered member (releaseGroup).
func (r *Router) snapshotEmitTargets(s *shard) {
	s.groupScratch = s.groupScratch[:0]
	r.mu.Lock()
	for _, g := range r.groups {
		s.groupScratch = append(s.groupScratch, g)
	}
	r.mu.Unlock()
}

// applyToTable is the table step for one Loc-RIB transition: export the
// new best once for the whole group and record it in shard si's
// partition of the group's Adj-RIB-Out, under the change's Loc-RIB id;
// whatever cannot be exported withdraws the entry. A route no member can
// see — its originator is the group's only member — is not exported or
// stored at all, which is what makes a group of one cost what a peer's
// own table did. A group with no members on the shard has no table
// (leaveGroup dropped it) and is skipped; a first member joining again
// gets a fresh one rebuilt from the Loc-RIB.
//
// Id lifetime: the Loc-RIB frees a prefix's id when the prefix leaves it
// and may hand the id to the next new prefix. applyChange runs this step
// for every group with members on the shard right after the change that
// freed the id, before the RIB's next Announce, and that change clears
// the id's entry here. So every entry of a live table is under an id the
// Loc-RIB holds, for the prefix it was written for; no count per id is
// needed.
func (r *Router) applyToTable(si int, s *shard, g *updateGroup, ch rib.Change) {
	sh := &g.shards[si]
	if len(sh.members) == 0 {
		return
	}
	it := groupEmitItem{prefix: ch.Prefix}
	if ch.New.Attrs != nil && sh.visible(ch.New.Peer.Addr) {
		if attrs, ok := r.exportRoute(si, g, ch.Prefix, ch.New); ok {
			it.new = advert{attrs: attrs, origin: ch.New.Peer.Addr}
		}
	}
	var changed bool
	if it.new.attrs != nil {
		it.old.attrs, changed = sh.adjOut.Advertise(ch.ID, it.new.attrs)
	} else {
		it.old.attrs, changed = sh.adjOut.Withdraw(ch.ID)
	}
	// An entry is the export of the Loc-RIB best, so the one this
	// transition replaces was learned from ch.Old's peer. The same bytes
	// from another originator still change two members' views.
	if it.old.attrs != nil && ch.Old.Attrs != nil {
		it.old.origin = ch.Old.Peer.Addr
		changed = changed || it.old.origin != it.new.origin
	}
	switch {
	case !changed:
	case r.cfg.MRAI > 0:
		sh.pend(ch.Prefix, it.old)
	default:
		s.emit.add(g, it)
	}
}

// groupEmitItem is one table transition, the emit buffer's item; a zero
// advert (nil attrs) means "absent". It carries both ends because each
// member's view of the transition depends on who originated them.
type groupEmitItem struct {
	prefix netaddr.Prefix
	old    advert
	new    advert
}

// emitItem is one route change toward a recipient, what a transition
// amounts to in one member's view; attrs == nil means withdraw.
type emitItem struct {
	prefix netaddr.Prefix
	attrs  *wire.PathAttrs
}

// emitSlot accumulates one group's transitions across a work batch, in
// decision order.
type emitSlot struct {
	g     *updateGroup
	items []groupEmitItem
}

// emitBuf collects a work batch's transitions per group, so each group's
// outbound changes flush once at batch end instead of one queue push per
// change. Slots and their item buffers are reused across batches;
// slots[:n] are active.
type emitBuf struct {
	slots []emitSlot
	n     int
}

// add appends a transition for g. The linear scan is over the handful of
// groups touched this batch, which is small in every benchmark topology.
func (b *emitBuf) add(g *updateGroup, it groupEmitItem) {
	for i := 0; i < b.n; i++ {
		if b.slots[i].g == g {
			b.slots[i].items = append(b.slots[i].items, it)
			return
		}
	}
	if b.n == len(b.slots) {
		b.slots = append(b.slots, emitSlot{})
	}
	b.slots[b.n].g = g
	b.slots[b.n].items = append(b.slots[b.n].items[:0], it)
	b.n++
}

// reset retires the active slots, dropping their group references.
func (b *emitBuf) reset() {
	for i := 0; i < b.n; i++ {
		b.slots[i].g = nil
	}
	b.n = 0
}

// flushEmits drains the batch's accumulated transitions, each group's
// through its members' sinks. Consecutive runs pack into few UPDATEs
// while preserving the exact per-prefix transition order a per-change
// emission would have produced.
func (r *Router) flushEmits(si int, s *shard) {
	for _, e := range s.emit.slots[:s.emit.n] {
		r.fanOutItems(si, e.g, e.items)
	}
	s.emit.reset()
}

// runEnd is the run packer: it returns the end of the emission run that
// starts at items[i]. A run is consecutive withdrawals, or consecutive
// announcements sharing one interned attribute block, cut at the export
// batch limit; it travels as one UPDATE. Packing never reorders or
// coalesces across a run boundary, so a recipient observes the same
// per-prefix transition sequence as with one UPDATE per change. Every
// emitter cuts its stream here, which is what makes a shared stream
// byte-identical to the one a lone recipient is sent.
func runEnd(items []emitItem, i, limit int) int {
	j := i + 1
	for j < len(items) && items[j].attrs == items[i].attrs && j-i < limit {
		j++
	}
	return j
}

// runPrefixes appends the run's prefixes to dst.
func runPrefixes(dst []netaddr.Prefix, run []emitItem) []netaddr.Prefix {
	for _, it := range run {
		dst = append(dst, it.prefix)
	}
	return dst
}

// runUpdate builds the UPDATE carrying one run, whose prefixes pfx holds.
func runUpdate(run []emitItem, pfx []netaddr.Prefix) wire.Update {
	if run[0].attrs == nil {
		return wire.Update{Withdrawn: pfx}
	}
	return wire.Update{Attrs: *run[0].attrs, NLRI: pfx}
}

// pushEmitRuns is the single-recipient sink: each run of the ordered
// stream becomes one wire.Update queued to the peer's session, which
// marshals it.
func pushEmitRuns(ps *peerState, items []emitItem, limit int) {
	for i, j := 0, 0; i < len(items); i = j {
		j = runEnd(items, i, limit)
		pfx := runPrefixes(make([]netaddr.Prefix, 0, j-i), items[i:j])
		ps.send(runUpdate(items[i:j], pfx))
	}
}

// pend notes, for an MRAI-held change, what the table held before it —
// once per prefix and window.
func (sh *groupShard) pend(p netaddr.Prefix, old advert) {
	if sh.pending == nil {
		sh.pending = make(map[netaddr.Prefix]advert)
	}
	if _, open := sh.pending[p]; !open {
		sh.pending[p] = old
	}
}

// mraiTicker is the router's one MRAI goroutine, whatever the number of
// peers, groups or session bounces: every interval it asks each shard
// worker to flush the windows of the groups it serves, so the pending
// sets stay worker-owned.
func (r *Router) mraiTicker() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.MRAI)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			for i := range r.shards {
				if !r.send(i, workItem{kind: workFlush}) {
					return
				}
			}
		}
	}
}

// flushMRAI closes shard si's MRAI window on g's table and emits each
// held prefix's net transition, first-old to the table's current entry
// (whose originator is the Loc-RIB best's), in prefix order like every
// other walk, so one window always packs into the same UPDATEs. A prefix
// that returned to where the window found it is suppressed and counted.
func (r *Router) flushMRAI(si int, s *shard, g *updateGroup) {
	sh := &g.shards[si]
	if len(sh.pending) == 0 {
		return
	}
	items := s.gitems[:0]
	for p, old := range sh.pending {
		items = append(items, groupEmitItem{prefix: p, old: old})
	}
	sh.pending = nil
	slices.SortFunc(items, func(a, b groupEmitItem) int { return a.prefix.Compare(b.prefix) })
	shardRIB, n := r.rib.Shard(si), 0
	for _, it := range items {
		if id, best, ok := shardRIB.Entry(it.prefix); ok {
			if attrs, ok := sh.adjOut.Lookup(id); ok {
				it.new = advert{attrs: attrs, origin: best.Peer.Addr}
			}
		}
		if it.new != it.old {
			items[n] = it
			n++
		}
	}
	r.mraiSuppressed.Add(uint64(len(items) - n))
	r.fanOutItems(si, g, items[:n])
	s.gitems = items[:0]
}
