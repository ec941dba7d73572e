package core

import (
	"fmt"
	"sync"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// This file implements update groups: peers whose export treatment is
// provably identical (same eBGP-vs-iBGP handling, behavior-equal export
// route map — see rib.GroupKeyFor) share one Adj-RIB-Out and one
// emission pipeline. Each route change is exported once per group
// instead of once per peer, each emission run is marshaled once through
// the shard's cross-group marshal cache (marshalcache.go), and the
// framed bytes are fanned out to every member session as a
// reference-counted session.SharedPayload. This turns emission from
// O(peers × prefixes) into O(distinct runs) + a per-peer byte copy at
// the transport, which is what makes hundreds of peering sessions over
// DFZ-sized tables plausible.
//
// Concurrency model: all per-shard group state (groupShard) is owned by
// that shard's worker goroutine, exactly like per-peer Adj-RIB-Out
// partitions. Even the per-group MRAI flush runs on the shard workers —
// the flusher goroutine only enqueues workGroupFlush items — so the
// group tables need no locks. Whole-table work (group rebuilds, member
// catch-up replays) runs in bounded chunks on the same workers
// (groupCatchup) instead of stop-the-world walks.

const (
	// catchupChunk bounds how many snapshot keys one catch-up chunk
	// processes, keeping the shard's worst-case pause independent of
	// table size.
	catchupChunk = 2048
	// catchupForceEvery forces one catch-up chunk per this many queued
	// work items, so catch-ups advance even under sustained update load.
	catchupForceEvery = 8
)

// updateGroup is one update group: the set of peers sharing a canonical
// export-policy key, with per-shard state owned by the shard workers.
type updateGroup struct {
	key    string
	ebgp   bool
	export *policy.RouteMap // first-seen map; behavior-equal to every member's
	// as4 is the members' negotiated wire mode and afis their negotiated
	// family set; both are folded into the group key because the fan-out
	// shares marshaled bytes, whose encoding depends on both.
	as4  bool
	afis [2]bool

	shards []groupShard

	// flusherOnce starts the group's MRAI flusher on first membership
	// (only when Config.MRAI > 0).
	flusherOnce sync.Once
}

// groupShard is shard i's partition of a group: the shared Adj-RIB-Out,
// the memoized export transform, current members, MRAI-pending
// transitions, and worker-owned scratch. Touched only by shard worker i.
//
//bgplint:owned-by shard-worker
type groupShard struct {
	adjOut      *rib.GroupAdjOut
	exportCache map[exportKey]*wire.PathAttrs
	members     map[netaddr.Addr]*peerState
	// pending accumulates MRAI-coalesced transitions: first-old is
	// preserved and last-new overwritten, so a flush emits exactly the
	// net transition (and suppresses flaps that return to the start).
	pending map[netaddr.Prefix]groupTransition

	// Scratch reused across emission runs.
	dirty      []netaddr.Addr
	acts       []emitItem // clean-member action stream
	dacts      []emitItem // per-dirty-member action stream
	pfx        []netaddr.Prefix
	flushItems []groupEmitItem
}

// groupTransition is one MRAI-pending prefix transition on a group:
// the entry before the first change and after the last.
type groupTransition struct {
	old rib.GroupRoute
	new rib.GroupRoute
}

// groupEmitItem is one group-table transition accumulated during a work
// batch; a zero GroupRoute (nil Attrs) means "absent".
type groupEmitItem struct {
	prefix netaddr.Prefix
	old    rib.GroupRoute
	new    rib.GroupRoute
}

// emitGroup accumulates one group's transitions across a work batch.
type emitGroup struct {
	g     *updateGroup
	items []groupEmitItem
}

// groupEmitBuf is the grouped analogue of emitBuf: per-group transition
// lists that flush once at batch end.
type groupEmitBuf struct {
	groups []emitGroup
	n      int
}

func (b *groupEmitBuf) add(g *updateGroup, p netaddr.Prefix, old, new rib.GroupRoute) {
	it := groupEmitItem{prefix: p, old: old, new: new}
	for i := 0; i < b.n; i++ {
		if b.groups[i].g == g {
			b.groups[i].items = append(b.groups[i].items, it)
			return
		}
	}
	if b.n < len(b.groups) {
		eg := &b.groups[b.n]
		eg.g = g
		eg.items = append(eg.items[:0], it)
	} else {
		b.groups = append(b.groups, emitGroup{g: g, items: []groupEmitItem{it}})
	}
	b.n++
}

// sameAttrs compares attribute pointers: pointer equality first (attrs
// are interned, so this is the common case), deep equality as a guard.
func sameAttrs(a, b *wire.PathAttrs) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Equal(*b)
}

// groupFor returns (creating if needed) the update group for the given
// export treatment, and ensures its MRAI flusher is running when MRAI
// is configured. The group adopts the first-seen export map; any later
// member mapping to the same key has a behavior-equal map by
// construction of the canonical key.
func (r *Router) groupFor(ebgp bool, export *policy.RouteMap, as4 bool, afis [2]bool) *updateGroup {
	key := rib.GroupKeyFor(ebgp, export) + fmt.Sprintf("|as4=%t|afis=%t,%t", as4, afis[0], afis[1])
	r.mu.Lock()
	g := r.groups[key]
	if g == nil {
		g = &updateGroup{key: key, ebgp: ebgp, export: export, as4: as4, afis: afis, shards: make([]groupShard, r.nshards)}
		r.groups[key] = g
	}
	r.mu.Unlock()
	if r.cfg.MRAI > 0 {
		g.flusherOnce.Do(func() {
			r.wg.Add(1)
			go r.groupFlusher(g)
		})
	}
	return g
}

// snapshotGroupsInto appends the current update groups to buf, reusing
// its capacity; the grouped analogue of snapshotPeersInto.
func (r *Router) snapshotGroupsInto(buf []*updateGroup) []*updateGroup {
	r.mu.Lock()
	for _, g := range r.groups {
		buf = append(buf, g)
	}
	r.mu.Unlock()
	return buf
}

// groupExportAttrs is the group-scoped mirror of exportAttrs: split
// horizon, export policy, and eBGP transforms depend only on the
// candidate and the group's key fields, never on an individual member,
// which is exactly why members can share the result.
func (r *Router) groupExportAttrs(si int, g *updateGroup, p netaddr.Prefix, c rib.Candidate) (*wire.PathAttrs, bool) {
	// Never export a family the group's members did not negotiate.
	if !g.afis[p.Family()] {
		return nil, false
	}
	// iBGP split-horizon: do not re-advertise iBGP routes to iBGP peers.
	if !c.Peer.EBGP && !g.ebgp {
		return nil, false
	}
	sh := &g.shards[si]
	cacheable := g.export == nil
	key := exportKey{attrs: c.Attrs, srcEBGP: c.Peer.EBGP}
	if cacheable {
		if out, ok := sh.exportCache[key]; ok {
			return out, true
		}
	}
	attrs, ok := g.export.Apply(p, *c.Attrs)
	if !ok {
		return nil, false
	}
	var out *wire.PathAttrs
	if g.ebgp {
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
		sh.exportCache[key] = out
	}
	return out, true
}

// applyChangeGrouped propagates one Loc-RIB transition into every
// group's shared Adj-RIB-Out on this shard, recording the transition for
// emission. Groups with no members on the shard are skipped entirely:
// their tables go stale and are rebuilt from the Loc-RIB when a first
// member joins again.
func (r *Router) applyChangeGrouped(si int, ch rib.Change, geb *groupEmitBuf, groups []*updateGroup) {
	for _, g := range groups {
		sh := &g.shards[si]
		if len(sh.members) == 0 {
			continue
		}
		if ch.New != nil {
			attrs, ok := r.groupExportAttrs(si, g, ch.Prefix, *ch.New)
			if !ok {
				if old, had := sh.adjOut.Withdraw(ch.Prefix); had {
					geb.add(g, ch.Prefix, old, rib.GroupRoute{})
				}
				continue
			}
			if old, _, changed := sh.adjOut.Advertise(ch.Prefix, attrs, ch.New.Peer.Addr); changed {
				geb.add(g, ch.Prefix, old, rib.GroupRoute{Attrs: attrs, Origin: ch.New.Peer.Addr})
			}
		} else {
			if old, had := sh.adjOut.Withdraw(ch.Prefix); had {
				geb.add(g, ch.Prefix, old, rib.GroupRoute{})
			}
		}
	}
}

// flushGroupEmits drains the batch's accumulated group transitions: with
// MRAI they merge into the group's pending set (worker-owned, lock-free),
// otherwise each group's run is emitted immediately.
func (r *Router) flushGroupEmits(si int, geb *groupEmitBuf) {
	for i := 0; i < geb.n; i++ {
		eg := &geb.groups[i]
		if r.cfg.MRAI > 0 {
			sh := &eg.g.shards[si]
			if sh.pending == nil {
				sh.pending = make(map[netaddr.Prefix]groupTransition)
			}
			for _, it := range eg.items {
				if t, ok := sh.pending[it.prefix]; ok {
					t.new = it.new
					sh.pending[it.prefix] = t
				} else {
					sh.pending[it.prefix] = groupTransition{old: it.old, new: it.new}
				}
			}
		} else {
			r.emitGroupItems(si, eg.g, eg.items)
		}
		eg.g = nil
		eg.items = eg.items[:0]
	}
	geb.n = 0
}

// memberEmitAction computes what one transition means for a member with
// the given BGP ID: presence in the member's view is "the entry exists
// and the member is not its originator". The zero Addr acts as a
// sentinel "originates nothing" member, yielding the stream every
// non-originating (clean) member shares.
func memberEmitAction(it groupEmitItem, member netaddr.Addr) (emitItem, bool) {
	oldIn := it.old.Attrs != nil && it.old.Origin != member
	newIn := it.new.Attrs != nil && it.new.Origin != member
	switch {
	case oldIn && !newIn:
		return emitItem{prefix: it.prefix, attrs: nil}, true
	case newIn && (!oldIn || !sameAttrs(it.old.Attrs, it.new.Attrs)):
		return emitItem{prefix: it.prefix, attrs: it.new.Attrs}, true
	}
	return emitItem{}, false
}

// emitGroupItems is the fan-out core: it partitions the group's members
// into "dirty" (an originator of some transition in the run, whose view
// differs from the shared stream) and "clean" (everyone else), computes
// and marshals the clean stream once, and fans the framed bytes out to
// every clean member as one reference-counted payload. Dirty members —
// at most the handful of distinct originators in the run — get an exact
// per-member replay through the classic path.
func (r *Router) emitGroupItems(si int, g *updateGroup, items []groupEmitItem) {
	if len(items) == 0 {
		return
	}
	sh := &g.shards[si]
	members := sh.members
	if len(members) == 0 {
		return
	}

	// Dirty set: members appearing as an originator in the run.
	sh.dirty = sh.dirty[:0]
	for _, it := range items {
		if it.old.Attrs != nil {
			sh.dirty = addDirty(sh.dirty, it.old.Origin, members)
		}
		if it.new.Attrs != nil {
			sh.dirty = addDirty(sh.dirty, it.new.Origin, members)
		}
	}

	// Clean stream: the view of a member that originates nothing.
	cleanCount := len(members) - len(sh.dirty)
	if cleanCount > 0 {
		sh.acts = sh.acts[:0]
		for _, it := range items {
			if a, ok := memberEmitAction(it, netaddr.Addr{}); ok {
				sh.acts = append(sh.acts, a)
			}
		}
		if len(sh.acts) > 0 {
			r.fanOutClean(si, g, cleanCount)
		}
	}

	// Dirty members: exact per-member replay.
	for _, addr := range sh.dirty {
		ps := members[addr]
		sh.dacts = sh.dacts[:0]
		for _, it := range items {
			if a, ok := memberEmitAction(it, addr); ok {
				sh.dacts = append(sh.dacts, a)
			}
		}
		if len(sh.dacts) > 0 {
			pushEmitRuns(ps, sh.dacts, r.cfg.ExportBatch)
		}
	}
}

// fanOutClean packs the shard's prepared clean action stream (sh.acts)
// into emission runs and pushes each run's framed bytes to every clean
// member. Runs are obtained from the shard's cross-group marshal cache:
// a run another group (or an earlier batch) already produced is fanned
// out again by reference instead of being re-marshaled, so marshal bytes
// scale with distinct runs, not groups × prefixes. On a marshal failure
// (a run exceeding the wire's message bound) the remaining stream falls
// back to per-member pushes, which fail exactly as the ungrouped path
// would.
func (r *Router) fanOutClean(si int, g *updateGroup, cleanCount int) {
	sh := &g.shards[si]
	s := r.shards[si]
	limit := r.cfg.ExportBatch
	totalBytes := 0
	pushed := false
	for i := 0; i < len(sh.acts); {
		// Pack one run: consecutive withdrawals, or consecutive
		// announcements sharing an interned attribute block, chunked at
		// the export batch limit — byte-identical packing to pushEmitRuns.
		j := i + 1
		attrs := sh.acts[i].attrs
		sh.pfx = sh.pfx[:0]
		if attrs == nil {
			for j < len(sh.acts) && sh.acts[j].attrs == nil && j-i < limit {
				j++
			}
		} else {
			for j < len(sh.acts) && sh.acts[j].attrs == attrs && j-i < limit {
				j++
			}
		}
		for k := i; k < j; k++ {
			sh.pfx = append(sh.pfx, sh.acts[k].prefix)
		}
		p, err := s.mcache.payloadFor(r, g.as4, attrs, sh.pfx, cleanCount)
		if err != nil {
			for addr, ps := range sh.members {
				if isDirtyMember(sh.dirty, addr) {
					continue
				}
				pushEmitRuns(ps, sh.acts[i:], limit)
			}
			break
		}
		totalBytes += len(p.Bytes())
		for addr, ps := range sh.members {
			if isDirtyMember(sh.dirty, addr) {
				continue
			}
			ps.out.pushShared(p)
		}
		pushed = true
		i = j
	}
	if !pushed {
		return
	}
	r.groupRuns.Add(1)
	r.groupSends.Add(uint64(cleanCount))
	r.groupBytesBuilt.Add(uint64(totalBytes))
	if cleanCount > 1 {
		r.groupBytesSaved.Add(uint64(totalBytes * (cleanCount - 1)))
	}
}

// addDirty appends an originating member to the dirty set once.
func addDirty(dirty []netaddr.Addr, o netaddr.Addr, members map[netaddr.Addr]*peerState) []netaddr.Addr {
	if o.IsZero() {
		return dirty
	}
	if _, isMember := members[o]; !isMember {
		return dirty
	}
	for _, d := range dirty {
		if d == o {
			return dirty
		}
	}
	return append(dirty, o)
}

func isDirtyMember(dirty []netaddr.Addr, addr netaddr.Addr) bool {
	for _, d := range dirty {
		if d == addr {
			return true
		}
	}
	return false
}

// processGroupFlush drains a group's MRAI-pending transitions on shard
// si. It runs on the shard worker (enqueued by the group flusher), so
// pending/members/adjOut remain worker-owned. Net-no-op transitions
// (the table returned to its pre-window state) are suppressed and
// counted — the grouped analogue of per-peer MRAI suppression.
func (r *Router) processGroupFlush(si int, g *updateGroup) {
	sh := &g.shards[si]
	if len(sh.pending) == 0 {
		return
	}
	pending := sh.pending
	sh.pending = nil
	items := sh.flushItems[:0]
	for p, t := range pending {
		if t.old.Attrs == t.new.Attrs && t.old.Origin == t.new.Origin {
			r.groupSuppressed.Add(1)
			continue
		}
		items = append(items, groupEmitItem{prefix: p, old: t.old, new: t.new})
	}
	r.emitGroupItems(si, g, items)
	sh.flushItems = items[:0]
}

// groupFlusher ticks every MRAI and schedules a flush of the group's
// pending transitions on every shard worker.
func (r *Router) groupFlusher(g *updateGroup) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.MRAI)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			for i := range r.shards {
				if !r.send(i, workItem{kind: workGroupFlush, group: g}) {
					return
				}
			}
		}
	}
}

// processPeerUpGrouped registers a grouped peer on shard si. The first
// member on a shard gets a fresh group table plus a chunked rebuild from
// the Loc-RIB (the table may be missing or stale: changes are not
// applied to member-less groups); the rebuild's own emissions double as
// the member's catch-up replay, since every entry it advertises into the
// empty table fans out to the membership. Later members join the live
// table and get a chunked replay of their view of it. Either way the
// work is bounded per chunk and interleaves with the shard's queue
// instead of stalling it for the whole table.
func (r *Router) processPeerUpGrouped(si int, ps *peerState) {
	g := ps.group
	sh := &g.shards[si]
	if sh.members == nil {
		sh.members = make(map[netaddr.Addr]*peerState)
	}
	if len(sh.members) == 0 {
		sh.adjOut = rib.NewGroupAdjOut()
		sh.exportCache = make(map[exportKey]*wire.PathAttrs)
		sh.pending = nil
		sh.members[ps.info.Addr] = ps
		r.scheduleGroupRebuild(si, g)
		return
	}
	sh.members[ps.info.Addr] = ps
	r.scheduleMemberReplay(si, ps)
}

// groupCatchup is one in-progress chunked catch-up on a shard: a rebuild
// of a group's table from the Loc-RIB (member == nil), or a replay of
// one member's view of the group table. prefixes is a sorted snapshot of
// the KEY SET only; each chunk re-reads the current entry for every key
// at processing time, so state that changed after the snapshot is never
// replayed stale — live changes and catch-up chunks are serialized on
// the same shard worker, and a prefix processed by both simply yields an
// idempotent duplicate.
//
//bgplint:owned-by shard-worker
type groupCatchup struct {
	g        *updateGroup
	member   *peerState // nil: whole-group rebuild from the Loc-RIB
	prefixes []netaddr.Prefix
	cursor   int
	start    time.Time
}

// scheduleGroupRebuild snapshots shard si's Loc-RIB key set and queues a
// chunked rebuild of g's freshly reset table. Any older catch-up for the
// group is dropped: it refers to the previous table generation.
func (r *Router) scheduleGroupRebuild(si int, g *updateGroup) {
	s := r.shards[si]
	s.catchups = dropCatchups(s.catchups, func(c *groupCatchup) bool { return c.g == g })
	pfx := r.rib.Shard(si).LocPrefixesInto(nil)
	if len(pfx) == 0 {
		return
	}
	r.groupRebuilds.Add(1)
	s.catchups = append(s.catchups, &groupCatchup{g: g, prefixes: pfx, start: time.Now()})
}

// scheduleMemberReplay snapshots the group table's key set and queues a
// chunked replay of ps's view of it (join catch-up and ROUTE-REFRESH).
// An older replay still queued for the same member is superseded.
func (r *Router) scheduleMemberReplay(si int, ps *peerState) {
	s := r.shards[si]
	s.catchups = dropCatchups(s.catchups, func(c *groupCatchup) bool { return c.member == ps })
	pfx := ps.group.shards[si].adjOut.PrefixesInto(nil)
	if len(pfx) == 0 {
		return
	}
	r.groupRebuilds.Add(1)
	s.catchups = append(s.catchups, &groupCatchup{g: ps.group, member: ps, prefixes: pfx, start: time.Now()})
}

// dropCatchups removes the catch-ups matching drop, preserving order.
func dropCatchups(cs []*groupCatchup, drop func(*groupCatchup) bool) []*groupCatchup {
	out := cs[:0]
	for _, c := range cs {
		if !drop(c) {
			out = append(out, c)
		}
	}
	for i := len(out); i < len(cs); i++ {
		cs[i] = nil
	}
	return out
}

// runCatchupChunk advances the shard's oldest catch-up by one bounded
// chunk, retiring it when done. Called by the shard worker whenever its
// queue idles, and forcibly every few work items under sustained load so
// catch-ups cannot starve.
func (r *Router) runCatchupChunk(si int, s *shard) {
	if len(s.catchups) == 0 {
		return
	}
	if r.processCatchupChunk(si, s.catchups[0]) {
		copy(s.catchups, s.catchups[1:])
		s.catchups[len(s.catchups)-1] = nil
		s.catchups = s.catchups[:len(s.catchups)-1]
	}
}

// drainGroupCatchups runs every catch-up touching group g to completion:
// the barrier the Adj-RIB-Out dump needs so a snapshot taken right after
// a join still reflects the full table.
func (r *Router) drainGroupCatchups(si int, s *shard, g *updateGroup) {
	for i := 0; i < len(s.catchups); {
		c := s.catchups[i]
		if c.g != g {
			i++
			continue
		}
		for !r.processCatchupChunk(si, c) {
		}
		s.catchups = append(s.catchups[:i], s.catchups[i+1:]...)
	}
}

// processCatchupChunk runs one bounded chunk of a catch-up, reporting
// whether the catch-up is finished (completed or abandoned).
func (r *Router) processCatchupChunk(si int, c *groupCatchup) bool {
	sh := &c.g.shards[si]
	if c.member == nil {
		return r.rebuildChunk(si, c, sh)
	}
	return r.replayChunk(si, c, sh)
}

// rebuildChunk advances a whole-group rebuild: re-read each snapshot key
// from the Loc-RIB, export it into the (fresh) group table, and emit the
// resulting transitions to the membership. A key whose best route
// vanished since the snapshot is skipped — the table never advertised
// it, so there is nothing to withdraw; a key a live change already
// advertised re-reads identically and Advertise reports no change.
func (r *Router) rebuildChunk(si int, c *groupCatchup, sh *groupShard) bool {
	if len(sh.members) == 0 {
		// Everyone left mid-rebuild: abandon. A future first member
		// resets the table and schedules a fresh rebuild.
		return true
	}
	end := c.cursor + catchupChunk
	if end > len(c.prefixes) {
		end = len(c.prefixes)
	}
	shardRIB := r.rib.Shard(si)
	items := sh.flushItems[:0]
	for _, p := range c.prefixes[c.cursor:end] {
		cand, ok := shardRIB.Lookup(p)
		if !ok {
			continue
		}
		attrs, ok := r.groupExportAttrs(si, c.g, p, cand)
		if !ok {
			continue
		}
		if old, _, changed := sh.adjOut.Advertise(p, attrs, cand.Peer.Addr); changed {
			items = append(items, groupEmitItem{prefix: p, old: old, new: rib.GroupRoute{Attrs: attrs, Origin: cand.Peer.Addr}})
		}
	}
	r.emitGroupItems(si, c.g, items)
	sh.flushItems = items[:0]
	c.cursor = end
	r.groupRebuildChunks.Add(1)
	if c.cursor >= len(c.prefixes) {
		r.rebuildHist.observe(time.Since(c.start))
		return true
	}
	return false
}

// replayChunk advances a member catch-up replay: re-read each snapshot
// key from the group table and stream the member's view of it. Runs
// sharing an interned attribute block pack into one UPDATE and come from
// the shard's marshal cache, so members joining the same group replay
// the same bytes without re-marshaling them.
func (r *Router) replayChunk(si int, c *groupCatchup, sh *groupShard) bool {
	addr := c.member.info.Addr
	if sh.members[addr] != c.member {
		// The member left (or its slot was re-established): abandon.
		return true
	}
	end := c.cursor + catchupChunk
	if end > len(c.prefixes) {
		end = len(c.prefixes)
	}
	s := r.shards[si]
	limit := r.cfg.ExportBatch
	pfx := sh.pfx[:0]
	var runAttrs *wire.PathAttrs
	//bgplint:allow(shardowner) reason=flush is a function-local closure called only below in this same worker-owned frame; the catch-up never leaves shard worker si
	flush := func() {
		if len(pfx) == 0 {
			return
		}
		if p, err := s.mcache.payloadFor(r, c.g.as4, runAttrs, pfx, 1); err == nil {
			c.member.out.pushShared(p)
		} else {
			// Over-bound run: push the unmarshaled UPDATE and let the
			// session layer fail it exactly as the ungrouped path would.
			c.member.out.push(wire.Update{Attrs: *runAttrs, NLRI: append([]netaddr.Prefix(nil), pfx...)})
		}
		pfx = pfx[:0]
	}
	for _, p := range c.prefixes[c.cursor:end] {
		gr, ok := sh.adjOut.Lookup(p)
		if !ok || gr.Origin == addr {
			continue
		}
		if len(pfx) > 0 && (gr.Attrs != runAttrs || len(pfx) >= limit) {
			flush()
		}
		if len(pfx) == 0 {
			runAttrs = gr.Attrs
		}
		pfx = append(pfx, p)
	}
	flush()
	sh.pfx = pfx[:0]
	c.cursor = end
	r.groupRebuildChunks.Add(1)
	if c.cursor >= len(c.prefixes) {
		r.rebuildHist.observe(time.Since(c.start))
		return true
	}
	return false
}

// UpdateNeighbor replaces the stored configuration for a neighbor AS at
// runtime. It applies to sessions established after the call — an
// already-established session keeps the config (and update group) it
// came up with until it re-establishes, which is how a policy change
// moves a peer between groups.
func (r *Router) UpdateNeighbor(n NeighborConfig) {
	r.mu.Lock()
	r.neighbors[n.AS] = n
	r.mu.Unlock()
}

// neighborConfig reads the stored configuration for a neighbor AS.
func (r *Router) neighborConfig(as uint32) (NeighborConfig, bool) {
	r.mu.Lock()
	n, ok := r.neighbors[as]
	r.mu.Unlock()
	return n, ok
}

// UpdateGroupsEnabled reports whether the router runs grouped emission.
func (r *Router) UpdateGroupsEnabled() bool { return r.cfg.UpdateGroups }

// GroupStats is an operational snapshot of the update-group subsystem.
type GroupStats struct {
	Enabled bool
	// Groups is the number of distinct export-policy groups seen.
	Groups int
	// Runs counts shared emission runs computed and marshaled once;
	// Sends counts the member sessions those runs were fanned out to.
	// Sends/Runs is the fan-out ratio (≈ members per group when every
	// member is clean).
	Runs, Sends uint64
	// BytesBuilt is the total size of marshaled shared payloads;
	// BytesSaved is the marshal work avoided versus per-peer emission
	// (payload size × (recipients−1)).
	BytesBuilt, BytesSaved uint64
	// Suppressed counts MRAI net-no-op transitions dropped before
	// emission.
	Suppressed uint64
	// BytesMarshaled is the bytes actually encoded by the shared marshal
	// cache (misses only); BytesBuilt / BytesMarshaled is the marshal
	// amplification the cache removed. CacheHits and CacheMisses count
	// cache probes.
	BytesMarshaled         uint64
	CacheHits, CacheMisses uint64
	// Rebuilds counts chunked catch-ups scheduled (group rebuilds and
	// member replays); RebuildChunks the bounded chunks they ran in.
	Rebuilds, RebuildChunks uint64
}

// FanoutRatio returns Sends/Runs, the mean number of sessions each
// shared emission run reached.
func (g GroupStats) FanoutRatio() float64 {
	if g.Runs == 0 {
		return 0
	}
	return float64(g.Sends) / float64(g.Runs)
}

// GroupStats returns the update-group counters.
func (r *Router) GroupStats() GroupStats {
	r.mu.Lock()
	n := len(r.groups)
	r.mu.Unlock()
	return GroupStats{
		Enabled:        r.cfg.UpdateGroups,
		Groups:         n,
		Runs:           r.groupRuns.Load(),
		Sends:          r.groupSends.Load(),
		BytesBuilt:     r.groupBytesBuilt.Load(),
		BytesSaved:     r.groupBytesSaved.Load(),
		Suppressed:     r.groupSuppressed.Load(),
		BytesMarshaled: r.groupBytesMarshaled.Load(),
		CacheHits:      r.groupCacheHits.Load(),
		CacheMisses:    r.groupCacheMisses.Load(),
		Rebuilds:       r.groupRebuilds.Load(),
		RebuildChunks:  r.groupRebuildChunks.Load(),
	}
}

// RebuildLatency returns the rebuild/catch-up latency histogram.
func (r *Router) RebuildLatency() RebuildHist { return r.rebuildHist.snapshot() }
