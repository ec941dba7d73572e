package core

import (
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// This file is the emission pipeline: how a Loc-RIB change (Phase 2 of
// the paper's method, the router re-advertising to Speaker 2) becomes
// UPDATEs on a session. Every stage is written once, against an
// emitTarget:
//
//	target → export transform → table step → emit buffer (or, with MRAI,
//	the pending set) → run packer → sink
//
// The one fork is the Adj-RIB-Out table a peer was bound to at register:
// its own rib.AdjOut (peerState.adjOut), which filters the route's
// originator at write time, or its update group's shared rib.GroupAdjOut
// (updategroup.go), which stores the originator and filters at read
// time. The table decides the item type the buffer carries and the sink
// a run ends in — out.push of a wire.Update for one recipient, a
// marshal-cache SharedPayload for a group's clean stream — and nothing
// else.

// emitTarget is the export identity an Adj-RIB-Out table emits under:
// everything the export transform and the MRAI window depend on. A
// peerState embeds one for its own table; an updateGroup embeds the one
// its members share.
type emitTarget struct {
	ebgp    bool
	afis    [2]bool          // negotiated families; others are never exported
	export  *policy.RouteMap // nil permits everything unchanged
	tshards []targetShard    // one per shard; named apart from updateGroup.shards
}

// targetShard is shard i's slice of a target. Touched only by shard
// worker i.
//
//bgplint:owned-by shard-worker
type targetShard struct {
	// exportCache memoizes the export transform keyed by canonical input
	// attrs. Only consulted when the target has no export policy
	// (policies may match on prefix, which the cache cannot key).
	exportCache map[exportKey]*wire.PathAttrs
	// pending is the open MRAI window: for every prefix whose table entry
	// changed in it, the entry before the first change (zero: absent).
	// The entry after the last change is the table's own.
	pending map[netaddr.Prefix]rib.GroupRoute
}

type exportKey struct {
	attrs   *wire.PathAttrs
	srcEBGP bool
}

func newEmitTarget(ebgp bool, afis [2]bool, export *policy.RouteMap, nshards int) emitTarget {
	t := emitTarget{ebgp: ebgp, afis: afis, export: export, tshards: make([]targetShard, nshards)}
	for i := range t.tshards {
		t.tshards[i].exportCache = make(map[exportKey]*wire.PathAttrs)
	}
	return t
}

// target returns the emitTarget of the table the peer is bound to.
func (ps *peerState) target() *emitTarget {
	if ps.group != nil {
		return &ps.group.emitTarget
	}
	return &ps.emitTarget
}

// exportRoute applies split horizon, export policy and the standard eBGP
// transformations (own-AS prepend, next-hop-self) for a route toward a
// target, returning an interned canonical pointer. None of it depends on
// an individual recipient, which is why a group's members can share the
// result. When the target has no export policy the transform is memoized
// per (input attrs, source session type), so the per-prefix
// clone+prepend collapses into a map hit after first sight.
func (r *Router) exportRoute(si int, t *emitTarget, p netaddr.Prefix, c rib.Candidate) (*wire.PathAttrs, bool) {
	// Never export a family the session did not negotiate.
	if !t.afis[p.Family()] {
		return nil, false
	}
	// iBGP split-horizon: do not re-advertise iBGP routes to iBGP peers.
	if !c.Peer.EBGP && !t.ebgp {
		return nil, false
	}
	cache := t.tshards[si].exportCache
	cacheable := t.export == nil
	key := exportKey{attrs: c.Attrs, srcEBGP: c.Peer.EBGP}
	if cacheable {
		if out, ok := cache[key]; ok {
			return out, true
		}
	}
	attrs, ok := t.export.Apply(p, *c.Attrs)
	if !ok {
		return nil, false
	}
	var out *wire.PathAttrs
	if t.ebgp {
		a := attrs.Clone()
		a.ASPath = a.ASPath.Prepend(r.cfg.AS)
		a.NextHop, a.HasNextHop = r.nextHopSelf(a), true
		// LOCAL_PREF is not sent on eBGP sessions.
		a.HasLocalPref, a.LocalPref = false, 0
		out = r.interner.Intern(a)
	} else {
		out = r.interner.Intern(attrs)
	}
	if cacheable {
		cache[key] = out
	}
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

// snapshotEmitTargets refreshes the shard's table scratch for one work
// batch — the peers bound to their own table, and the update groups — so
// r.mu stays off the per-prefix path.
func (r *Router) snapshotEmitTargets(s *shard) {
	s.peerScratch, s.groupScratch = s.peerScratch[:0], s.groupScratch[:0]
	r.mu.Lock()
	for _, ps := range r.peers {
		if ps.group == nil {
			s.peerScratch = append(s.peerScratch, ps)
		}
	}
	for _, g := range r.groups {
		s.groupScratch = append(s.groupScratch, g)
	}
	r.mu.Unlock()
}

// peerExport is the peer table's audience rule followed by the export
// transform: a route is never advertised back to the peer it came from,
// decided here, at write time (the group table stores the originator and
// decides per member at read time).
func (r *Router) peerExport(si int, ps *peerState, p netaddr.Prefix, c rib.Candidate) (*wire.PathAttrs, bool) {
	if c.Peer.Addr == ps.info.Addr {
		return nil, false
	}
	return r.exportRoute(si, &ps.emitTarget, p, c)
}

// applyToPeerTable is the peer table's step for one Loc-RIB transition:
// export the new best toward ps and record it in shard si's partition of
// its Adj-RIB-Out; whatever cannot be exported withdraws what the peer
// held.
func (r *Router) applyToPeerTable(si int, s *shard, ps *peerState, ch rib.Change) {
	var attrs *wire.PathAttrs
	if ch.New != nil {
		attrs, _ = r.peerExport(si, ps, ch.Prefix, *ch.New)
	}
	var old *wire.PathAttrs
	var changed bool
	if attrs != nil {
		old, changed = ps.adjOut[si].Advertise(ch.Prefix, attrs)
	} else {
		old, changed = ps.adjOut[si].Withdraw(ch.Prefix)
	}
	switch {
	case !changed:
	case r.cfg.MRAI > 0:
		ps.tshards[si].pend(ch.Prefix, rib.GroupRoute{Attrs: old})
	default:
		s.emit.add(ps, emitItem{prefix: ch.Prefix, attrs: attrs})
	}
}

// emitItem is one queued route change toward a recipient; attrs == nil
// means withdraw.
type emitItem struct {
	prefix netaddr.Prefix
	attrs  *wire.PathAttrs
}

// emitSlot accumulates one table's changes across a work batch, in
// decision order.
type emitSlot[K comparable, T any] struct {
	key   K
	items []T
}

// emitBuf collects a work batch's emissions per table — K is the table's
// owner (*peerState or *updateGroup), T its item type — so each table's
// outbound changes flush once at batch end instead of one queue push per
// change. Slots and their item buffers are reused across batches;
// slots[:n] are active.
type emitBuf[K comparable, T any] struct {
	slots []emitSlot[K, T]
	n     int
}

// add appends a change for k. The linear scan is over the handful of
// tables touched this batch, which is small in every benchmark topology.
func (b *emitBuf[K, T]) add(k K, it T) {
	for i := 0; i < b.n; i++ {
		if b.slots[i].key == k {
			b.slots[i].items = append(b.slots[i].items, it)
			return
		}
	}
	if b.n == len(b.slots) {
		b.slots = append(b.slots, emitSlot[K, T]{})
	}
	b.slots[b.n].key = k
	b.slots[b.n].items = append(b.slots[b.n].items[:0], it)
	b.n++
}

// reset retires the active slots, dropping their owner references.
func (b *emitBuf[K, T]) reset() {
	var none K
	for i := 0; i < b.n; i++ {
		b.slots[i].key = none
	}
	b.n = 0
}

// flushEmits drains the batch's accumulated emissions, each table's
// through its sink. Consecutive runs pack into few UPDATEs while
// preserving the exact per-prefix transition order a per-change emission
// would have produced.
func (r *Router) flushEmits(si int, s *shard) {
	for _, e := range s.emit.slots[:s.emit.n] {
		pushEmitRuns(e.key, e.items, r.cfg.ExportBatch)
	}
	s.emit.reset()
	for _, e := range s.gemit.slots[:s.gemit.n] {
		r.fanOutItems(si, e.key, e.items)
	}
	s.gemit.reset()
}

// runEnd is the run packer: it returns the end of the emission run that
// starts at items[i]. A run is consecutive withdrawals, or consecutive
// announcements sharing one interned attribute block, cut at the export
// batch limit; it travels as one UPDATE. Packing never reorders or
// coalesces across a run boundary, so a recipient observes the same
// per-prefix transition sequence as with one UPDATE per change. Every
// emitter cuts its stream here, which is what makes a group's shared
// stream byte-identical to the per-peer one.
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

// runUpdate builds the UPDATE carrying one run.
func runUpdate(run []emitItem) wire.Update {
	pfx := runPrefixes(make([]netaddr.Prefix, 0, len(run)), run)
	if run[0].attrs == nil {
		return wire.Update{Withdrawn: pfx}
	}
	return wire.Update{Attrs: *run[0].attrs, NLRI: pfx}
}

// pushEmitRuns is the single-recipient sink: each run of the ordered
// stream becomes one wire.Update on the peer's out-queue, marshaled by
// its session.
func pushEmitRuns(ps *peerState, items []emitItem, limit int) {
	for i, j := 0, 0; i < len(items); i = j {
		j = runEnd(items, i, limit)
		ps.out.push(runUpdate(items[i:j]))
	}
}

// exportLocRIB sends shard si's Loc-RIB slice to a peer with its own
// table, skipping what its Adj-RIB-Out partition already advertises: the
// initial table transfer (Phase 2 of the benchmark methodology), in
// prefix order.
func (r *Router) exportLocRIB(si int, ps *peerState) {
	var items []emitItem
	r.rib.Shard(si).WalkLoc(func(p netaddr.Prefix, c rib.Candidate) bool {
		if attrs, ok := r.peerExport(si, ps, p, c); ok {
			if _, changed := ps.adjOut[si].Advertise(p, attrs); changed {
				items = append(items, emitItem{prefix: p, attrs: attrs})
			}
		}
		return true
	})
	pushEmitRuns(ps, items, r.cfg.ExportBatch)
}

// pend notes, for an MRAI-held change, what the table held before it —
// once per prefix and window.
func (ts *targetShard) pend(p netaddr.Prefix, old rib.GroupRoute) {
	if ts.pending == nil {
		ts.pending = make(map[netaddr.Prefix]rib.GroupRoute)
	}
	if _, open := ts.pending[p]; !open {
		ts.pending[p] = old
	}
}

// mraiTicker is the router's one MRAI goroutine, whatever the number of
// peers, groups or session bounces: every interval it asks each shard
// worker to flush the windows of the tables it serves, so the pending
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

// flushMRAI closes shard si's MRAI window on the table ps is bound to
// and emits each held prefix's net transition, first-old to the table's
// current entry. A prefix that returned to where the window found it is
// suppressed and counted. A group's window closes with the first member
// that gets here; for the others it is already empty.
func (r *Router) flushMRAI(si int, s *shard, ps *peerState) {
	ts := &ps.target().tshards[si]
	if len(ts.pending) == 0 {
		return
	}
	pending := ts.pending
	ts.pending = nil
	if g := ps.group; g != nil {
		items := s.gitems[:0]
		for p, old := range pending {
			if cur, _ := g.shards[si].adjOut.Lookup(p); cur != old {
				items = append(items, groupEmitItem{prefix: p, old: old, new: cur})
			}
		}
		r.mraiSuppressed.Add(uint64(len(pending) - len(items)))
		r.fanOutItems(si, g, items)
		s.gitems = items[:0]
		return
	}
	items := s.acts[:0]
	for p, old := range pending {
		if cur, _ := ps.adjOut[si].Lookup(p); cur != old.Attrs {
			items = append(items, emitItem{prefix: p, attrs: cur})
		}
	}
	r.mraiSuppressed.Add(uint64(len(pending) - len(items)))
	pushEmitRuns(ps, items, r.cfg.ExportBatch)
	s.acts = items[:0]
}
