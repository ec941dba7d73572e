package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// This file implements update groups, the membership side of the
// emission pipeline (emit.go). Every peer is bound to a group when it
// registers. Peers whose export treatment is provably identical (same
// eBGP-vs-iBGP handling, behavior-equal export route map — see
// rib.GroupKeyFor) can share one: each route change is then exported
// once per group instead of once per peer, each emission run is
// marshaled once per group, and the same framed bytes are queued to
// every member session. This turns emission from O(peers × prefixes)
// into O(groups × prefixes) + a per-peer byte copy at the transport,
// which is what makes hundreds of peering sessions over DFZ-sized tables
// plausible. A peer that shares with nobody is a group of one, and three
// rules read off worker-owned state make that cost what a table of its
// own would: a table never stores an entry no member can see
// (groupShard.visible), a stream with one recipient is not marshaled for
// sharing (fanOutItems), and a group nobody is registered in leaves the
// registry (releaseGroup). What lives here is group membership, the
// clean/dirty fan-out partition, and chunked catch-up.
//
// Concurrency model: all per-shard group state (groupShard) is owned by
// that shard's worker goroutine, so the group tables need no locks.
// Whole-table work (group rebuilds, member catch-up replays) runs in
// bounded chunks on the same workers (groupCatchup) instead of
// stop-the-world walks.

const (
	// catchupChunk bounds how many snapshot keys one catch-up chunk
	// processes, keeping the shard's worst-case pause independent of
	// table size.
	catchupChunk = 2048
	// catchupForceEvery forces one catch-up chunk per this many queued
	// work items, so catch-ups advance even under sustained update load.
	catchupForceEvery = 8
)

// updateGroup is one update group: the peers registered under one group
// key, the export identity they share — everything the export transform
// depends on — and per-shard state owned by the shard workers. export is
// the first-seen export map, behavior-equal to every member's.
type updateGroup struct {
	key    string
	ebgp   bool
	afis   [2]bool          // negotiated families; others are never exported
	export *policy.RouteMap // nil permits everything unchanged
	// as4 is the members' negotiated wire mode; like the family set it is
	// folded into the group key because the fan-out shares marshaled
	// bytes, whose encoding depends on both.
	as4 bool
	// registered counts the registrations bound to the group (Router.mu):
	// the last one to finish its teardown takes the group out of the
	// registry.
	registered int

	shards []groupShard
}

// groupShard is shard i's partition of a group: its Adj-RIB-Out, its
// current members, and what emitting from the table needs. Touched only
// by shard worker i. A partition without members is the zero value: no
// table at all.
//
//bgplint:owned-by shard-worker
type groupShard struct {
	adjOut  *rib.AdjOut // a column indexed by the shard Loc-RIB's ids
	members map[netaddr.Addr]*peerState
	// sole is the member when there is exactly one, else nil.
	sole *peerState
	// exportCache memoizes the export transform (exportRoute), keyed by
	// canonical input attrs, source session type and the export term
	// chosen, which is all the transform depends on once the term is
	// known: the prefix only picks the term. The group's export map is
	// immutable, so entries never go stale; the cache holds at most
	// interned paths × 2 × (terms+1) entries and starts empty again
	// when a first member rejoins the partition.
	exportCache map[exportKey]*wire.PathAttrs
	// pending is the open MRAI window: for every prefix whose table entry
	// changed in it, the entry before the first change (zero: absent).
	// The entry after the last change is the table's own.
	pending map[netaddr.Prefix]advert
}

// visible reports whether any member may be sent a route learned from
// origin: all are, except the one its only member originated. Such a
// route is kept out of the table; when a second member joins, a rebuild
// adds what became visible, and entries that stop being visible when the
// membership drops back to one linger unemitted until they next change.
func (sh *groupShard) visible(origin netaddr.Addr) bool {
	return sh.sole == nil || sh.sole.info.Addr != origin
}

// setMember adds (in != nil) or removes the member with the given
// address and keeps sole in step.
func (sh *groupShard) setMember(addr netaddr.Addr, in *peerState) {
	if in != nil {
		sh.members[addr] = in
	} else {
		delete(sh.members, addr)
	}
	sh.sole = nil
	if len(sh.members) == 1 {
		for _, m := range sh.members {
			sh.sole = m
		}
	}
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

// groupFor returns (creating if needed) the update group a registering
// peer is bound to, and counts the registration; the caller holds r.mu.
// This is all Config.UpdateGroups selects: the key is the canonical
// export treatment, shared by every peer with that treatment, or that
// plus the peer's BGP ID, a group per peer. The group adopts the
// first-seen export map; any later member mapping to the same key has a
// behavior-equal map by construction of the canonical key.
func (r *Router) groupFor(info rib.PeerInfo, export *policy.RouteMap, as4 bool, afis [2]bool) *updateGroup {
	// The wire mode and negotiated family set are part of the group
	// identity: fan-out shares marshaled bytes, which depend on both.
	key := rib.GroupKeyFor(info.EBGP, export) + fmt.Sprintf("|as4=%t|afis=%t,%t", as4, afis[0], afis[1])
	if !r.cfg.UpdateGroups {
		key += "|id=" + info.ID.String()
	}
	g := r.groups[key]
	if g == nil {
		g = &updateGroup{
			key:    key,
			ebgp:   info.EBGP,
			afis:   afis,
			export: export,
			as4:    as4,
			shards: make([]groupShard, r.nshards),
		}
		r.groups[key] = g
	}
	g.registered++
	return g
}

// releaseGroup gives back one registration's hold on its group; the
// caller holds r.mu. A group nobody is registered in has no member on
// any shard, and leaves the registry so the per-batch snapshot does not
// walk every group key the router has ever seen.
func (r *Router) releaseGroup(g *updateGroup) {
	if g.registered--; g.registered == 0 {
		delete(r.groups, g.key)
	}
}

// memberEmitAction computes what one transition means for a member with
// the given BGP ID: presence in the member's view is "the entry exists
// and the member is not its originator". The zero Addr acts as a
// sentinel "originates nothing" member, yielding the stream every
// non-originating (clean) member shares.
func memberEmitAction(it groupEmitItem, member netaddr.Addr) (emitItem, bool) {
	oldIn := it.old.attrs != nil && it.old.origin != member
	newIn := it.new.attrs != nil && it.new.origin != member
	switch {
	case oldIn && !newIn:
		return emitItem{prefix: it.prefix, attrs: nil}, true
	case newIn && (!oldIn || !sameAttrs(it.old.attrs, it.new.attrs)):
		return emitItem{prefix: it.prefix, attrs: it.new.attrs}, true
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

// fanOutItems turns a group's transitions into its members' streams. It
// partitions the members into "dirty" (an originator of some transition
// in the run, whose view differs from the shared stream) and "clean"
// (everyone else). Dirty members — at most the handful of distinct
// originators in the run — get an exact per-member stream through the
// single-recipient sink, and so does a lone clean member: shared bytes
// are for sharing. Two or more clean members share one stream, computed
// and marshaled once and fanned out as the same bytes per run.
func (r *Router) fanOutItems(si int, g *updateGroup, items []groupEmitItem) {
	sh := &g.shards[si]
	if len(items) == 0 || len(sh.members) == 0 {
		return
	}
	s := r.shards[si]

	// Dirty set: members appearing as an originator in the run. A sole
	// member's stream is its own view whether or not it does.
	s.dirty = s.dirty[:0]
	if sh.sole != nil {
		s.dirty = append(s.dirty, sh.sole.info.Addr)
	} else {
		for _, it := range items {
			if it.old.attrs != nil {
				s.dirty = addDirty(s.dirty, it.old.origin, sh.members)
			}
			if it.new.attrs != nil {
				s.dirty = addDirty(s.dirty, it.new.origin, sh.members)
			}
		}
	}

	// Clean stream: the view of a member that originates nothing.
	if len(sh.members) > len(s.dirty) {
		if s.acts = memberActions(s.acts[:0], items, netaddr.Addr{}); len(s.acts) > 0 {
			r.fanOutClean(si, g)
		}
	}
	for _, addr := range s.dirty {
		s.dacts = memberActions(s.dacts[:0], items, addr)
		pushEmitRuns(sh.members[addr], s.dacts, r.cfg.ExportBatch)
	}
}

// fanOutClean sends the shard's prepared clean action stream (s.acts) to
// every member of g outside the dirty set (s.dirty): through the
// single-recipient sink when that is one member, else through the shared
// sink, accounting for the sharing.
func (r *Router) fanOutClean(si int, g *updateGroup) {
	s := r.shards[si]
	for addr, ps := range g.shards[si].members {
		if !isDirtyMember(s.dirty, addr) {
			s.recipients = append(s.recipients, ps)
		}
	}
	if n := len(s.recipients); n == 1 {
		pushEmitRuns(s.recipients[0], s.acts, r.cfg.ExportBatch)
	} else if bytes := r.sendShared(s, g.as4); bytes > 0 {
		r.groupRuns.Add(1)
		r.groupSends.Add(uint64(n))
		r.groupBytesBuilt.Add(uint64(bytes))
		r.groupBytesSaved.Add(uint64(bytes * (n - 1)))
	}
	clear(s.recipients)
	s.recipients = s.recipients[:0]
}

// sendShared is the shared sink: each run of the shard's action stream
// (s.acts) is marshaled once into the shard's scratch and copied out
// into a slice of its own, which is queued to every one of s.recipients;
// it returns the bytes marshaled. The copy is the whole ownership
// protocol: nothing writes those bytes again (the scratch is reused for
// the next run, the copy never is), sessions only read them, and the
// garbage collector reclaims them after the last recipient's write. A
// run that cannot be marshaled (it exceeds the wire's message bound)
// goes out as a plain UPDATE to every recipient, which then fails in
// the session exactly as the single-recipient sink's would.
func (r *Router) sendShared(s *shard, as4 bool) (bytes int) {
	for i, j := 0, 0; i < len(s.acts); i = j {
		j = runEnd(s.acts, i, r.cfg.ExportBatch)
		run := s.acts[i:j]
		s.pfx = runPrefixes(s.pfx[:0], run)
		var err error
		if s.wbuf, err = wire.AppendMessageMode(s.wbuf[:0], runUpdate(run, s.pfx), as4); err != nil {
			m := runUpdate(run, slices.Clone(s.pfx))
			for _, ps := range s.recipients {
				ps.send(m)
			}
			continue
		}
		shared := slices.Clone(s.wbuf)
		bytes += len(shared)
		for _, ps := range s.recipients {
			ps.sendShared(shared)
		}
	}
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

// joinGroup makes ps a member of its group on shard si. The first
// member on a shard gets a fresh table plus a chunked rebuild from the
// Loc-RIB (the table may be missing or stale: changes are not applied to
// member-less groups); the rebuild's own emissions double as the
// member's catch-up replay, since every entry it advertises into the
// empty table fans out to the membership. Later members join the live
// table and get a chunked replay of their view of it. The second also
// makes visible what only the first originated and the table therefore
// never held: a rebuild without reset, queued behind the joiner's replay,
// adds exactly those entries, so nobody is sent a route twice. Either
// way the work is bounded per chunk and interleaves with the shard's
// queue instead of stalling it for the whole table — the initial table
// transfer of the benchmark's Phase 2 included.
func (r *Router) joinGroup(si int, ps *peerState) {
	g := ps.group
	sh := &g.shards[si]
	before := len(sh.members)
	if before == 0 {
		*sh = groupShard{
			adjOut:      rib.NewAdjOut(),
			members:     make(map[netaddr.Addr]*peerState),
			exportCache: make(map[exportKey]*wire.PathAttrs),
		}
	}
	sh.setMember(ps.info.Addr, ps)
	if before > 0 {
		r.scheduleCatchup(si, g, ps)
	}
	if before < 2 {
		r.scheduleCatchup(si, g, nil)
	}
}

// leaveGroup takes ps out of its group on shard si, so that its teardown
// withdrawals fan out only to the surviving members, and drops the
// catch-ups that can no longer deliver anything: the member's own
// replay, and — once the shard has no members — any rebuild of the
// group's table. The last member to leave drops the partition's table,
// export memo and MRAI window with it: a table no change is applied to
// would keep entries under ids the Loc-RIB frees and reuses (see
// applyToTable). A future first member starts a fresh table and
// schedules a rebuild.
func (r *Router) leaveGroup(si int, ps *peerState) {
	g := ps.group
	sh := &g.shards[si]
	sh.setMember(ps.info.Addr, nil)
	empty := len(sh.members) == 0
	if empty {
		*sh = groupShard{}
	}
	r.shards[si].catchups = slices.DeleteFunc(r.shards[si].catchups, func(c *groupCatchup) bool {
		return c.member == ps || (c.g == g && empty)
	})
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

// scheduleCatchup queues a chunked catch-up on shard si: with no member,
// a rebuild of g's table from a snapshot of the Loc-RIB's key set —
// everything, into a freshly reset table, or what a second member made
// visible, into a live one; with one, a replay of that member's view of
// a snapshot of the table's key set (join catch-up and ROUTE-REFRESH).
// An older catch-up of the same kind for the same target is superseded:
// this one covers its keys.
func (r *Router) scheduleCatchup(si int, g *updateGroup, member *peerState) {
	s := r.shards[si]
	s.catchups = slices.DeleteFunc(s.catchups, func(c *groupCatchup) bool { return c.g == g && c.member == member })
	var pfx []netaddr.Prefix
	if member == nil {
		pfx = r.rib.Shard(si).LocPrefixesInto(nil)
	} else {
		pfx = g.shards[si].adjOut.PrefixesInto(r.rib.Shard(si), nil)
	}
	if len(pfx) == 0 {
		return
	}
	r.groupRebuilds.Add(1)
	s.catchups = append(s.catchups, &groupCatchup{g: g, member: member, prefixes: pfx, start: time.Now()})
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
		s.catchups = slices.Delete(s.catchups, 0, 1)
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
		s.catchups = slices.Delete(s.catchups, i, i+1)
	}
}

// processCatchupChunk runs one bounded chunk of a catch-up, the next
// catchupChunk keys of its snapshot, reporting whether that finished it.
// Leaving a group drops the catch-ups that lost their audience
// (leaveGroup), so a chunk always has one.
func (r *Router) processCatchupChunk(si int, c *groupCatchup) bool {
	end := min(c.cursor+catchupChunk, len(c.prefixes))
	if c.member == nil {
		r.rebuildChunk(si, c.g, c.prefixes[c.cursor:end])
	} else {
		r.replayChunk(si, c.member, c.prefixes[c.cursor:end])
	}
	c.cursor = end
	r.groupRebuildChunks.Add(1)
	if end < len(c.prefixes) {
		return false
	}
	r.rebuildHist.observe(time.Since(c.start))
	return true
}

// rebuildChunk advances a whole-group rebuild: re-read each snapshot key
// from the Loc-RIB, export what some member can see into the group table,
// and emit the resulting transitions to the membership. A key whose best
// route vanished since the snapshot is skipped — live changes keep the
// table in step with the Loc-RIB, so there is nothing to withdraw; a key
// the table already holds re-reads identically and Advertise reports no
// change.
func (r *Router) rebuildChunk(si int, g *updateGroup, keys []netaddr.Prefix) {
	s, sh, shardRIB := r.shards[si], &g.shards[si], r.rib.Shard(si)
	items := s.gitems[:0]
	for _, p := range keys {
		id, cand, ok := shardRIB.Entry(p)
		if !ok || !sh.visible(cand.Peer.Addr) {
			continue
		}
		attrs, ok := r.exportRoute(si, g, p, cand)
		if !ok {
			continue
		}
		// An entry always mirrors the current best, so one that changes
		// here was absent.
		if _, changed := sh.adjOut.Advertise(id, attrs); changed {
			items = append(items, groupEmitItem{prefix: p, new: advert{attrs: attrs, origin: cand.Peer.Addr}})
		}
	}
	r.fanOutItems(si, g, items)
	s.gitems = items[:0]
}

// replayChunk advances a member catch-up replay: re-read each snapshot
// key from the group table — and its originator from the Loc-RIB — and
// stream the member's view of it through the single-recipient sink.
func (r *Router) replayChunk(si int, member *peerState, keys []netaddr.Prefix) {
	s, sh, shardRIB := r.shards[si], &member.group.shards[si], r.rib.Shard(si)
	s.acts = s.acts[:0]
	for _, p := range keys {
		id, best, ok := shardRIB.Entry(p)
		if !ok || best.Peer.Addr == member.info.Addr {
			continue
		}
		if attrs, ok := sh.adjOut.Lookup(id); ok {
			s.acts = append(s.acts, emitItem{prefix: p, attrs: attrs})
		}
	}
	pushEmitRuns(member, s.acts, r.cfg.ExportBatch)
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

// UpdateGroupsEnabled reports whether peers are grouped by export
// treatment alone (Config.UpdateGroups) rather than one group per peer.
func (r *Router) UpdateGroupsEnabled() bool { return r.cfg.UpdateGroups }

// GroupStats is an operational snapshot of the update-group subsystem.
type GroupStats struct {
	Enabled bool
	// Groups is the number of update groups with a registered member now:
	// distinct export treatments when Enabled, else one per peer.
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
	// BytesMarshaled is the bytes the shared sink marshaled: each shared
	// run once per group, so it equals BytesBuilt.
	BytesMarshaled uint64
	// CacheHits and CacheMisses always read 0: there is no marshal cache.
	// They stay only because the repository benchmark reads them; like
	// Config.UpdateGroups, their removal belongs to a benchmark change.
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
		BytesMarshaled: r.groupBytesBuilt.Load(),
		Rebuilds:       r.groupRebuilds.Load(),
		RebuildChunks:  r.groupRebuildChunks.Load(),
	}
}

// RebuildLatency returns the rebuild/catch-up latency histogram.
func (r *Router) RebuildLatency() RebuildHist { return r.rebuildHist.snapshot() }

// rebuildBuckets are the upper bounds (seconds) of the rebuild-latency
// histogram, chosen to straddle the chunked walk times of 10k..1M-prefix
// tables.
var rebuildBuckets = [...]float64{0.001, 0.01, 0.1, 1, 10}

// rebuildHist is a fixed-bucket histogram of group rebuild / catch-up
// replay wall times, written lock-free by the shard workers.
type rebuildHist struct {
	counts   [len(rebuildBuckets) + 1]atomic.Uint64
	sumNanos atomic.Uint64
	total    atomic.Uint64
}

func (h *rebuildHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(rebuildBuckets) && sec > rebuildBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
	h.total.Add(1)
}

// RebuildHist is a snapshot of the rebuild-latency histogram in
// Prometheus terms: Counts[i] observations at most Bounds[i] seconds,
// with Counts[len(Bounds)] the overflow bucket.
type RebuildHist struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

func (h *rebuildHist) snapshot() RebuildHist {
	out := RebuildHist{
		Bounds: rebuildBuckets[:],
		Counts: make([]uint64, len(h.counts)),
		Sum:    float64(h.sumNanos.Load()) / 1e9,
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}
