package rib

import (
	"sort"

	"bgpbench/internal/netaddr"
)

// ShardOf maps a prefix to one of n shards. The mapping is a fixed hash of
// the (masked address, length) pair, so every operation on a prefix lands
// on the same shard regardless of which peer or message carried it — the
// invariant that lets shard workers run without cross-shard locking.
func ShardOf(p netaddr.Prefix, n int) int {
	if n <= 1 {
		return 0
	}
	a := p.Addr()
	var h uint32
	if a.Is4() {
		// Keep the historical v4 hash bit-for-bit: shard assignment feeds
		// conformance digests, which must not move for v4-only configs.
		h = a.V4()*2654435761 + uint32(p.Len())*0x9E3779B9 //bgplint:allow(afifamily) reason=guarded by Is4 above; v4 hash is digest-pinned
	} else {
		m := a.Hi()*0x9E3779B97F4A7C15 ^ a.Lo()*0xC2B2AE3D27D4EB4F
		h = uint32(m>>32) ^ uint32(m) ^ 0x80000000 // family bit keeps v6 off the v4 mapping
		h += uint32(p.Len()) * 0x9E3779B9
	}
	h ^= h >> 16
	return int(h % uint32(n))
}

// Sharded partitions the prefix space over n independent RIBs, one per
// decision worker. Each shard is single-goroutine like RIB itself; the
// wrapper adds no locking. Aggregate accessors (Len, WalkLoc) are for
// tests and diagnostics and must only run while the shards are quiescent
// or from the owning workers.
type Sharded struct {
	shards []*RIB
}

// NewSharded builds n empty shards (n < 1 is treated as 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*RIB, n)}
	for i := range s.shards {
		s.shards[i] = New()
	}
	return s
}

// N returns the shard count.
func (s *Sharded) N() int { return len(s.shards) }

// Shard returns shard i.
func (s *Sharded) Shard(i int) *RIB { return s.shards[i] }

// ShardFor returns the shard owning prefix p.
func (s *Sharded) ShardFor(p netaddr.Prefix) *RIB {
	return s.shards[ShardOf(p, len(s.shards))]
}

// Len sums the Loc-RIB sizes of all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, r := range s.shards {
		n += r.Len()
	}
	return n
}

// Decisions sums the decision-process invocation counts of all shards.
func (s *Sharded) Decisions() uint64 {
	var n uint64
	for _, r := range s.shards {
		n += r.Decisions()
	}
	return n
}

// UnregisteredDrops sums the shards' dropped-announcement counts; unlike
// the other aggregates it is safe while the shards run.
func (s *Sharded) UnregisteredDrops() uint64 {
	var n uint64
	for _, r := range s.shards {
		n += r.UnregisteredDrops()
	}
	return n
}

// WalkLoc visits every best route across all shards in global prefix
// order until fn returns false.
func (s *Sharded) WalkLoc(fn func(netaddr.Prefix, Candidate) bool) {
	if len(s.shards) == 1 {
		s.shards[0].WalkLoc(fn)
		return
	}
	type entry struct {
		p netaddr.Prefix
		c Candidate
	}
	var all []entry
	for _, r := range s.shards {
		r.WalkLoc(func(p netaddr.Prefix, c Candidate) bool {
			all = append(all, entry{p, c})
			return true
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].p.Compare(all[j].p) < 0 })
	for _, e := range all {
		if !fn(e.p, e.c) {
			return
		}
	}
}
