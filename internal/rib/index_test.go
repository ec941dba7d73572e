package rib

import (
	"encoding/binary"
	"testing"

	"bgpbench/internal/netaddr"
)

// maxProbe returns the longest probe sequence in x: the most slots a
// lookup of one of its prefixes reads.
func (x *prefixIndex) maxProbe() int {
	mask := uint64(len(x.slots) - 1)
	longest := 0
	for at, s := range x.slots {
		if s != 0 {
			longest = max(longest, int((uint64(at)-s>>x.shift)&mask)+1)
		}
	}
	return longest
}

// checkIndex verifies x against ref, the prefixes it should hold: the
// count and the load bound, that every occupied slot is reachable from
// its home without crossing an empty slot (no tombstone would help a
// lookup here), and that every reference prefix is found under its id.
func checkIndex(t *testing.T, step int, x *prefixIndex, ref map[netaddr.Prefix]uint32) {
	t.Helper()
	mask := uint64(len(x.slots) - 1)
	occupied := 0
	for at, s := range x.slots {
		if s == 0 {
			continue
		}
		occupied++
		for i := s >> x.shift; i != uint64(at); i = (i + 1) & mask {
			if x.slots[i] == 0 {
				t.Fatalf("step %d: slot %d (home %d) lies past empty slot %d", step, at, s>>x.shift, i)
			}
		}
		if p := x.keys[uint32(s)]; ref[p] != uint32(s) {
			t.Fatalf("step %d: slot %d names %v under id %d, reference has id %d", step, at, p, uint32(s), ref[p])
		}
	}
	if occupied != x.n || x.n != len(ref) {
		t.Fatalf("step %d: %d occupied slots, n = %d, reference holds %d", step, occupied, x.n, len(ref))
	}
	if 2*x.n > len(x.slots) {
		t.Fatalf("step %d: %d prefixes in %d slots, load above 1/2", step, x.n, len(x.slots))
	}
	for p, id := range ref {
		if got, _, ok := x.find(p); !ok || got != id {
			t.Fatalf("step %d: find(%v) = %d, %v; want %d", step, p, got, ok, id)
		}
	}
}

// indexUniverse is 64 prefixes of both families. Prefix k+32 is the
// IPv6 prefix with prefix k's address words and length, so pairs that
// differ only in family are in it.
func indexUniverse() []netaddr.Prefix {
	u := make([]netaddr.Prefix, 64)
	for k := range 32 {
		v4 := netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(k)<<24|uint32(k&3)<<16), 8+k%25)
		u[k] = v4
		u[k+32] = netaddr.PrefixFrom(netaddr.AddrFrom128(v4.Addr().Hi(), v4.Addr().Lo()), v4.Len())
	}
	return u
}

// FuzzPrefixIndex runs the prefix index against a map[Prefix]uint32
// reference. The seed picks the hash; each op byte puts, deletes or
// finds one of indexUniverse's prefixes (top two bits: 0 and 1 put, 2
// deletes, 3 finds), ids are handed out and reused the way the Loc-RIB
// slab does, and the table grows from 8 slots up to 128.
func FuzzPrefixIndex(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x01, 0x02, 0x20, 0x21, 0x80, 0xc1, 0x03, 0x04, 0x05, 0x81, 0x82, 0xc0})
	f.Add(uint64(7), []byte{0x00, 0x20, 0x80, 0xc0, 0xe0, 0x00, 0x20})
	all := make([]byte, 0, 192)
	for k := range 64 {
		all = append(all, byte(k))
	}
	for k := range 64 {
		all = append(all, 0x80|byte(k*7%64), 0x40|byte(k*5%64))
	}
	f.Add(uint64(3), all)
	universe := indexUniverse()
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		x := newPrefixIndex(seed)
		ref := map[netaddr.Prefix]uint32{}
		var free []uint32
		next := uint32(1)
		for step, op := range ops {
			p := universe[op&63]
			id, at, ok := x.find(p)
			if want, had := ref[p]; ok != had || (ok && id != want) {
				t.Fatalf("step %d: find(%v) = %d, %v; reference %d, %v", step, p, id, ok, want, had)
			}
			switch op >> 6 {
			case 0, 1:
				if ok {
					break
				}
				if n := len(free); n > 0 {
					id, free = free[n-1], free[:n-1]
				} else {
					id, next = next, next+1
				}
				x.put(at, p, id)
				ref[p] = id
			case 2:
				if !ok {
					break
				}
				x.del(at)
				delete(ref, p)
				free = append(free, id)
			}
			checkIndex(t, step, &x, ref)
		}
	})
}

// homedAt returns n prefixes whose home slot in x is at, drawn in order
// from the IPv4 /24s and the IPv6 /48s alternately.
func homedAt(x *prefixIndex, at uint64, n int) []netaddr.Prefix {
	var out []netaddr.Prefix
	for i := uint32(0); len(out) < n; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFromV4(i<<8), 24)
		if i%2 == 1 {
			var b [16]byte
			binary.BigEndian.PutUint32(b[:], 0x20010000|i)
			p = netaddr.PrefixFrom(netaddr.AddrFrom16(b), 48)
		}
		if x.hash(p)>>x.shift == at {
			out = append(out, p)
		}
	}
	return out
}

// TestPrefixIndexBackwardShiftWraps deletes from probe runs that wrap
// past the end of the slot array: a slot homed at the last index that
// was pushed to index 0 moves back to the end, a slot homed at 0 that
// was pushed to 1 moves back to 0, and one sitting at its own home stays.
func TestPrefixIndexBackwardShiftWraps(t *testing.T) {
	x := newPrefixIndex(1)
	last := uint64(minIndexSlots - 1)
	tail, head := homedAt(&x, last, 2), homedAt(&x, 0, 1)
	ref := map[netaddr.Prefix]uint32{}
	put := func(p netaddr.Prefix, id uint32) {
		_, at, ok := x.find(p)
		if ok {
			t.Fatalf("%v found before it was put", p)
		}
		x.put(at, p, id)
		ref[p] = id
	}
	del := func(p netaddr.Prefix) {
		_, at, ok := x.find(p)
		if !ok {
			t.Fatalf("%v not found", p)
		}
		x.del(at)
		delete(ref, p)
	}
	slotOf := func(p netaddr.Prefix) uint64 {
		_, at, _ := x.find(p)
		return at
	}

	// tail[0] at 7, tail[1] wrapped to 0, head[0] pushed to 1.
	put(tail[0], 1)
	put(tail[1], 2)
	put(head[0], 3)
	if slotOf(tail[1]) != 0 || slotOf(head[0]) != 1 {
		t.Fatalf("slots %d and %d, want the wrapped run 7, 0, 1", slotOf(tail[1]), slotOf(head[0]))
	}
	del(tail[0])
	checkIndex(t, 0, &x, ref)
	if slotOf(tail[1]) != last || slotOf(head[0]) != 0 {
		t.Fatalf("after the delete at 7: slots %d and %d, want 7 and 0", slotOf(tail[1]), slotOf(head[0]))
	}

	// A slot at its own home must not move into a hole before it.
	del(tail[1])
	put(tail[0], 1)
	if slotOf(head[0]) != 0 {
		t.Fatalf("%v left its home slot 0 for %d", head[0], slotOf(head[0]))
	}
	del(tail[0])
	checkIndex(t, 1, &x, ref)
	if slotOf(head[0]) != 0 {
		t.Fatalf("%v moved from its home 0 to %d", head[0], slotOf(head[0]))
	}
}
