package core

import (
	"fmt"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// This file implements update groups, the shared-table side of the
// emission pipeline (emit.go): peers whose export treatment is provably
// identical (same eBGP-vs-iBGP handling, behavior-equal export route
// map — see rib.GroupKeyFor) share one emitTarget and one Adj-RIB-Out.
// Each route change is exported once per group instead of once per
// peer, each emission run is marshaled once through the shard's
// cross-group marshal cache (marshalcache.go), and the framed bytes are
// fanned out to every member session as a reference-counted
// session.SharedPayload. This turns emission from O(peers × prefixes)
// into O(distinct runs) + a per-peer byte copy at the transport, which
// is what makes hundreds of peering sessions over DFZ-sized tables
// plausible. What lives here is what only a shared table needs: group
// membership, the clean/dirty fan-out partition, and chunked catch-up.
//
// Concurrency model: all per-shard group state (groupShard) is owned by
// that shard's worker goroutine, exactly like per-peer Adj-RIB-Out
// partitions, so the group tables need no locks. Whole-table work (group
// rebuilds, member catch-up replays) runs in bounded chunks on the same
// workers (groupCatchup) instead of stop-the-world walks.

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
// Its emitTarget holds the first-seen export map, behavior-equal to
// every member's.
type updateGroup struct {
	key string
	emitTarget
	// as4 is the members' negotiated wire mode; like the target's family
	// set it is folded into the group key because the fan-out shares
	// marshaled bytes, whose encoding depends on both.
	as4 bool

	shards []groupShard
}

// groupShard is shard i's partition of a group: the shared Adj-RIB-Out
// and its current members. Touched only by shard worker i.
//
//bgplint:owned-by shard-worker
type groupShard struct {
	adjOut  *rib.GroupAdjOut
	members map[netaddr.Addr]*peerState
}

// groupEmitItem is one group-table transition, the group table's emit
// item; a zero GroupRoute (nil Attrs) means "absent". It carries both
// ends because each member's view of the transition depends on who
// originated them.
type groupEmitItem struct {
	prefix netaddr.Prefix
	old    rib.GroupRoute
	new    rib.GroupRoute
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
// export treatment. The group adopts the first-seen export map; any
// later member mapping to the same key has a behavior-equal map by
// construction of the canonical key.
func (r *Router) groupFor(ebgp bool, export *policy.RouteMap, as4 bool, afis [2]bool) *updateGroup {
	key := rib.GroupKeyFor(ebgp, export) + fmt.Sprintf("|as4=%t|afis=%t,%t", as4, afis[0], afis[1])
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.groups[key]
	if g == nil {
		g = &updateGroup{
			key:        key,
			emitTarget: newEmitTarget(ebgp, afis, export, r.nshards),
			as4:        as4,
			shards:     make([]groupShard, r.nshards),
		}
		r.groups[key] = g
	}
	return g
}

// applyToGroupTable is the group table's step for one Loc-RIB
// transition: export the new best once for the whole group and record it
// in shard si's partition of the shared Adj-RIB-Out, with its
// originator; whatever cannot be exported withdraws the entry. A group
// with no members on the shard is skipped entirely: its table goes stale
// and is rebuilt from the Loc-RIB when a first member joins again.
func (r *Router) applyToGroupTable(si int, s *shard, g *updateGroup, ch rib.Change) {
	sh := &g.shards[si]
	if len(sh.members) == 0 {
		return
	}
	var to rib.GroupRoute
	if ch.New != nil {
		if attrs, ok := r.exportRoute(si, &g.emitTarget, ch.Prefix, *ch.New); ok {
			to = rib.GroupRoute{Attrs: attrs, Origin: ch.New.Peer.Addr}
		}
	}
	var old rib.GroupRoute
	var changed bool
	if to.Attrs != nil {
		old, _, changed = sh.adjOut.Advertise(ch.Prefix, to.Attrs, to.Origin)
	} else {
		old, changed = sh.adjOut.Withdraw(ch.Prefix)
	}
	switch {
	case !changed:
	case r.cfg.MRAI > 0:
		g.tshards[si].pend(ch.Prefix, old)
	default:
		s.gemit.add(g, groupEmitItem{prefix: ch.Prefix, old: old, new: to})
	}
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

// memberActions appends to dst the action stream items amount to for one
// member.
func memberActions(dst []emitItem, items []groupEmitItem, member netaddr.Addr) []emitItem {
	for _, it := range items {
		if a, ok := memberEmitAction(it, member); ok {
			dst = append(dst, a)
		}
	}
	return dst
}

// fanOutItems is the group table's sink: it partitions the group's
// members into "dirty" (an originator of some transition in the run,
// whose view differs from the shared stream) and "clean" (everyone
// else), computes and marshals the clean stream once, and fans the
// framed bytes out to every clean member as one reference-counted
// payload. Dirty members — at most the handful of distinct originators
// in the run — get an exact per-member replay through the
// single-recipient sink.
func (r *Router) fanOutItems(si int, g *updateGroup, items []groupEmitItem) {
	members := g.shards[si].members
	if len(items) == 0 || len(members) == 0 {
		return
	}
	s := r.shards[si]

	// Dirty set: members appearing as an originator in the run.
	s.dirty = s.dirty[:0]
	for _, it := range items {
		if it.old.Attrs != nil {
			s.dirty = addDirty(s.dirty, it.old.Origin, members)
		}
		if it.new.Attrs != nil {
			s.dirty = addDirty(s.dirty, it.new.Origin, members)
		}
	}

	// Clean stream: the view of a member that originates nothing.
	if len(members) > len(s.dirty) {
		if s.acts = memberActions(s.acts[:0], items, netaddr.Addr{}); len(s.acts) > 0 {
			r.fanOutClean(si, g)
		}
	}
	for _, addr := range s.dirty {
		s.dacts = memberActions(s.dacts[:0], items, addr)
		pushEmitRuns(members[addr], s.dacts, r.cfg.ExportBatch)
	}
}

// fanOutClean sends the shard's prepared clean action stream (s.acts) to
// every member of g outside the dirty set (s.dirty) and accounts for the
// sharing.
func (r *Router) fanOutClean(si int, g *updateGroup) {
	s := r.shards[si]
	for addr, ps := range g.shards[si].members {
		if !isDirtyMember(s.dirty, addr) {
			s.recipients = append(s.recipients, ps)
		}
	}
	n := len(s.recipients)
	if bytes := r.sendShared(s, g.as4); bytes > 0 {
		r.groupRuns.Add(1)
		r.groupSends.Add(uint64(n))
		r.groupBytesBuilt.Add(uint64(bytes))
		r.groupBytesSaved.Add(uint64(bytes * (n - 1)))
	}
}

// sendShared is the shared-payload sink: each run of the shard's action
// stream (s.acts) is framed once and every one of s.recipients, which it
// consumes, is handed a reference to the bytes; it returns their total.
// Runs come from the shard's cross-group marshal cache: a run another
// group (or an earlier batch, or another member's replay) already
// produced is sent again by reference instead of being re-marshaled, so
// marshal bytes scale with distinct runs, not groups × prefixes. A run
// that cannot be marshaled (it exceeds the wire's message bound) goes
// out as a plain UPDATE per recipient, which then fails in the session
// exactly as a peer table's would.
func (r *Router) sendShared(s *shard, as4 bool) (bytes int) {
	for i, j := 0, 0; i < len(s.acts); i = j {
		j = runEnd(s.acts, i, r.cfg.ExportBatch)
		run := s.acts[i:j]
		s.pfx = runPrefixes(s.pfx[:0], run)
		p, err := s.mcache.payloadFor(r, as4, run[0].attrs, s.pfx, len(s.recipients))
		if err != nil {
			for _, ps := range s.recipients {
				ps.out.push(runUpdate(run))
			}
			continue
		}
		bytes += len(p.Bytes())
		for _, ps := range s.recipients {
			ps.out.pushShared(p)
		}
	}
	clear(s.recipients)
	s.recipients = s.recipients[:0]
	return bytes
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
		g.tshards[si] = targetShard{exportCache: make(map[exportKey]*wire.PathAttrs)}
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
	items := r.shards[si].gitems[:0]
	for _, p := range c.prefixes[c.cursor:end] {
		cand, ok := shardRIB.Lookup(p)
		if !ok {
			continue
		}
		attrs, ok := r.exportRoute(si, &c.g.emitTarget, p, cand)
		if !ok {
			continue
		}
		if old, _, changed := sh.adjOut.Advertise(p, attrs, cand.Peer.Addr); changed {
			items = append(items, groupEmitItem{prefix: p, old: old, new: rib.GroupRoute{Attrs: attrs, Origin: cand.Peer.Addr}})
		}
	}
	r.fanOutItems(si, c.g, items)
	r.shards[si].gitems = items[:0]
	c.cursor = end
	r.groupRebuildChunks.Add(1)
	if c.cursor >= len(c.prefixes) {
		r.rebuildHist.observe(time.Since(c.start))
		return true
	}
	return false
}

// replayChunk advances a member catch-up replay: re-read each snapshot
// key from the group table and stream the member's view of it through
// the shared-payload sink, so members joining the same group replay the
// same bytes without re-marshaling them.
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
	s.acts = s.acts[:0]
	for _, p := range c.prefixes[c.cursor:end] {
		if gr, ok := sh.adjOut.Lookup(p); ok && gr.Origin != addr {
			s.acts = append(s.acts, emitItem{prefix: p, attrs: gr.Attrs})
		}
	}
	s.recipients = append(s.recipients, c.member)
	r.sendShared(s, c.g.as4)
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
	// emission, on group tables and per-peer tables alike.
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
		Suppressed:     r.mraiSuppressed.Load(),
		BytesMarshaled: r.groupBytesMarshaled.Load(),
		CacheHits:      r.groupCacheHits.Load(),
		CacheMisses:    r.groupCacheMisses.Load(),
		Rebuilds:       r.groupRebuilds.Load(),
		RebuildChunks:  r.groupRebuildChunks.Load(),
	}
}

// RebuildLatency returns the rebuild/catch-up latency histogram.
func (r *Router) RebuildLatency() RebuildHist { return r.rebuildHist.snapshot() }
