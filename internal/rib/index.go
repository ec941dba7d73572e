package rib

import (
	"math/bits"
	"slices"

	"bgpbench/internal/netaddr"
)

// prefixIndex maps each Loc-RIB prefix to its id. It is an open-addressed
// table with linear probing: a power-of-two array of slots, each 0
// (empty) or tag<<32 | id, where tag is the top 32 bits of the prefix's
// hash and id is never 0 (the Loc-RIB slab never hands out 0). The
// prefixes themselves live in keys, an id-indexed column: a slot whose tag
// matches is confirmed by keys[id] == p, and a hit needs the entry at that
// id anyway, so a miss reads only slots and a hit one key beside them.
//
// The load stays at most ½, so a miss usually ends within the cache line
// (8 slots) where it started. A delete shifts the rest of its probe run
// back into the hole (backward-shift deletion), so there are no
// tombstones, and a table churned through withdraw-all/announce-all
// cycles keeps the size its largest population needed. A slot's home is
// the hash's top log2(len(slots)) bits, which the tag holds, so neither a
// delete nor a growth rehashes a key.
//
// The hash is a seeded multiply-mix of the prefix's three words. It must
// not be ShardOf's: every prefix of a shard shares a ShardOf residue. The
// seed is drawn per RIB, so a peer cannot choose colliding prefixes.
type prefixIndex struct {
	slots []uint64         // tag<<32 | id; 0: empty
	keys  []netaddr.Prefix // by id; entries of ids not in slots are stale
	shift uint             // 64 - log2(len(slots)): a hash's home is h >> shift
	n     int              // occupied slots
	seed  uint64
}

// minIndexSlots is the slot count of an empty index.
const minIndexSlots = 8

func newPrefixIndex(seed uint64) prefixIndex {
	return prefixIndex{
		slots: make([]uint64, minIndexSlots),
		shift: uint(64 - bits.TrailingZeros(minIndexSlots)),
		seed:  seed,
	}
}

// mix folds the 128-bit product of a and b.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash mixes p's address words and family/length with the index's seed.
func (x *prefixIndex) hash(p netaddr.Prefix) uint64 {
	a := p.Addr()
	h := mix(a.Hi()^x.seed, a.Lo()^x.seed^0x9e3779b97f4a7c15)
	return mix(h^uint64(p.Family())<<8^uint64(p.Len()), x.seed^0xd6e8feb86659fd93)
}

// find returns p's id, the slot holding it and true, or false and the
// empty slot where p's probe ended, at which put can store it.
func (x *prefixIndex) find(p netaddr.Prefix) (id uint32, at uint64, ok bool) {
	h := x.hash(p)
	mask := uint64(len(x.slots) - 1)
	for at = h >> x.shift; ; at = (at + 1) & mask {
		s := x.slots[at]
		if s == 0 {
			return 0, at, false
		}
		if s>>32 == h>>32 && x.keys[uint32(s)] == p {
			return uint32(s), at, true
		}
	}
}

// put indexes p, which find has just missed at slot at, under id, and
// grows the table once that takes the load past ½.
func (x *prefixIndex) put(at uint64, p netaddr.Prefix, id uint32) {
	if n := len(x.keys); int(id) >= n {
		x.keys = slices.Grow(x.keys, int(id)+1-n)[:id+1]
	}
	x.keys[id] = p
	x.slots[at] = x.hash(p)>>32<<32 | uint64(id)
	x.n++
	if 2*x.n > len(x.slots) {
		x.grow()
	}
}

// del empties slot at, which find has just returned for a hit, moving
// every later slot of its probe run whose home allows it back into the
// hole, so every remaining key stays reachable from its home without a
// tombstone.
func (x *prefixIndex) del(at uint64) {
	mask := uint64(len(x.slots) - 1)
	for j := (at + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole unless its home lies
		// cyclically after the hole, in (at, j].
		if s := x.slots[j]; (j-s>>x.shift)&mask >= (j-at)&mask {
			x.slots[at] = s
			at = j
		}
	}
	x.slots[at] = 0
	x.n--
}

// grow doubles the slot array, placing each slot by the home its tag
// names.
func (x *prefixIndex) grow() {
	if x.shift == 32 {
		panic("rib: prefix index past 2^31 prefixes") // a home would need id bits
	}
	old := x.slots
	x.slots = make([]uint64, 2*len(old))
	x.shift--
	mask := uint64(len(x.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		at := s >> x.shift
		for x.slots[at] != 0 {
			at = (at + 1) & mask
		}
		x.slots[at] = s
	}
}
