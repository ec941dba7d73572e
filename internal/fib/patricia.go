package fib

import "bgpbench/internal/netaddr"

// Patricia is a path-compressed binary trie (radix tree) under a
// direct-index root: per address family, a directory of 1<<16 links
// indexed by the top 16 address bits (the stride poptrie's root uses,
// chunkBits) holds one path-compressed subtrie per slot for the routes of
// length 16 or more, and a short trie holds the shorter ones, /0
// included. One slot load replaces the top sixteen levels of every
// insert, delete and lookup; internal single-child chains are collapsed,
// so the node count is O(number of routes). A lookup descends its slot
// and falls back to the short trie only when the slot has no match. This
// is the default engine for the router's FIB.
//
// Nodes are pointer-free values addressed by uint32 index in fixed-size
// pages, so the garbage collector never scans them and a page never
// moves; the directories hold indices too. The entries nodes forward with
// are interned in a small next-hop table. Nodes a delete splices out go
// on a free list that later inserts take from; every write runs
// single-goroutine (Table's write lock), so no reader can hold an index
// while it is reused.
type Patricia struct {
	pages []*[nodePageSize]pNode
	used  uint32 // node indices handed out so far; index 0 is never a node
	free  uint32 // head of the free-node list, linked through child[0]
	n     int

	// Indexed by netaddr.Family. A directory is allocated on its family's
	// first insert of a /16 or longer; a link is a node index, 0 for none.
	dir   [2]*[1 << chunkBits]uint32
	short [2]uint32 // root of the trie of routes shorter than /16

	hops     []Entry          // interned entries; a node's hop is 1 + an index here
	hopIdx   map[Entry]uint32 // entry -> its hop
	hopLimit int              // hops size that triggers compactHops
}

const (
	nodePageBits = 10
	nodePageSize = 1 << nodePageBits

	// minHopLimit is the smallest next-hop table compactHops lets grow
	// unswept.
	minHopLimit = 64
)

// pNode is one trie node. A node with hop 0 is structural: a split point
// with two children.
type pNode struct {
	prefix netaddr.Prefix
	hop    uint32    // 1 + index into Patricia.hops, 0 without a route
	child  [2]uint32 // node indices, 0 for none
}

// NewPatricia returns an empty path-compressed trie.
func NewPatricia() *Patricia {
	return &Patricia{used: 1, hopIdx: make(map[Entry]uint32), hopLimit: minHopLimit}
}

// top returns the link at the top of p's trie: its directory slot, or the
// short trie's root. Without a directory it returns nil, or allocates the
// directory when grow is set.
func (t *Patricia) top(p netaddr.Prefix, grow bool) *uint32 {
	f := p.Family()
	if p.Len() < chunkBits {
		return &t.short[f]
	}
	if t.dir[f] == nil {
		if !grow {
			return nil
		}
		t.dir[f] = new([1 << chunkBits]uint32)
	}
	return &t.dir[f][uint16(slot16(p.Addr()))]
}

// node returns the node at index i. Pages never move, so the pointer
// stays valid across later allocations.
func (t *Patricia) node(i uint32) *pNode {
	return &t.pages[i>>nodePageBits][i&(nodePageSize-1)]
}

// alloc places a new node, reusing a freed index when there is one.
func (t *Patricia) alloc(p netaddr.Prefix, hop uint32) uint32 {
	i := t.free
	if i != 0 {
		t.free = t.node(i).child[0]
	} else {
		i = t.used
		if int(i>>nodePageBits) == len(t.pages) {
			t.pages = append(t.pages, new([nodePageSize]pNode))
		}
		t.used++
	}
	*t.node(i) = pNode{prefix: p, hop: hop}
	return i
}

// release puts a node no other node links to any more on the free list.
func (t *Patricia) release(i uint32) {
	*t.node(i) = pNode{child: [2]uint32{t.free}}
	t.free = i
}

// intern returns the hop of e, adding it to the next-hop table if new.
func (t *Patricia) intern(e Entry) uint32 {
	if h, ok := t.hopIdx[e]; ok {
		return h
	}
	if len(t.hops) >= t.hopLimit {
		t.compactHops()
	}
	t.hops = append(t.hops, e)
	h := uint32(len(t.hops))
	t.hopIdx[e] = h
	return h
}

// compactHops drops the entries no node forwards with any more and
// renumbers the rest. An entry is kept until a sweep finds it unused, so
// no count is kept per entry; the next sweep waits until the table has
// grown by its live size plus the node count, which makes the sweeps
// O(1) amortized per new entry and bounds the table by the trie.
func (t *Patricia) compactHops() {
	remap := make([]uint32, len(t.hops)+1)
	for i := uint32(1); i < t.used; i++ {
		if h := t.node(i).hop; h != 0 {
			remap[h] = 1
		}
	}
	live := t.hops[:0]
	clear(t.hopIdx)
	for h, e := range t.hops {
		if remap[h+1] != 0 {
			live = append(live, e)
			remap[h+1] = uint32(len(live))
			t.hopIdx[e] = uint32(len(live))
		}
	}
	t.hops = live
	for i := uint32(1); i < t.used; i++ {
		if n := t.node(i); n.hop != 0 {
			n.hop = remap[n.hop]
		}
	}
	t.hopLimit = max(minHopLimit, 2*len(live)+int(t.used))
}

// Insert adds or replaces the entry for a prefix.
func (t *Patricia) Insert(p netaddr.Prefix, e Entry) {
	hop := t.intern(e)
	link := t.top(p, true)
	for {
		ci := *link
		if ci == 0 {
			*link = t.alloc(p, hop)
			t.n++
			return
		}
		c := t.node(ci)
		if c.prefix == p {
			if c.hop == 0 {
				t.n++
			}
			c.hop = hop
			return
		}
		cpl := min(p.Addr().CommonPrefixLen(c.prefix.Addr()), p.Len(), c.prefix.Len())
		switch {
		case cpl == c.prefix.Len():
			// c.prefix is a proper prefix of p: descend.
			link = &c.child[p.Addr().Bit(cpl)]
			continue
		case cpl == p.Len():
			// p is a proper prefix of c.prefix: splice p above c.
			ni := t.alloc(p, hop)
			t.node(ni).child[c.prefix.Addr().Bit(cpl)] = ci
			*link = ni
		default:
			// Paths diverge at cpl: create a forwarding-only split node.
			mi := t.alloc(netaddr.PrefixFrom(p.Addr(), cpl), 0)
			mid := t.node(mi)
			mid.child[c.prefix.Addr().Bit(cpl)] = ci
			mid.child[p.Addr().Bit(cpl)] = t.alloc(p, hop)
			*link = mi
		}
		t.n++
		return
	}
}

// Delete removes a prefix, splicing out structural nodes that become
// redundant. Every structural node has two children, so a delete frees at
// most the node and its parent split point.
func (t *Patricia) Delete(p netaddr.Prefix) bool {
	var up *uint32 // the link to the parent of the node at *link
	link := t.top(p, false)
	if link == nil {
		return false
	}
	for {
		i := *link
		if i == 0 {
			return false
		}
		n := t.node(i)
		if n.prefix == p {
			break
		}
		if n.prefix.Len() >= p.Len() || !n.prefix.Contains(p.Addr()) {
			return false
		}
		up, link = link, &n.child[p.Addr().Bit(n.prefix.Len())]
	}
	i := *link
	n := t.node(i)
	if n.hop == 0 {
		return false
	}
	n.hop = 0
	t.n--
	switch {
	case n.child[0] != 0 && n.child[1] != 0:
		return true // still a necessary split point
	case n.child[0] != 0 || n.child[1] != 0:
		*link = n.child[0] | n.child[1]
		t.release(i)
		return true
	}
	t.release(i)
	*link = 0
	if up != nil {
		if pi := *up; t.node(pi).hop == 0 {
			// The parent was a split point and is left with one child.
			*up = t.node(pi).child[0] | t.node(pi).child[1]
			t.release(pi)
		}
	}
	return true
}

// Lookup returns the entry of the longest prefix containing addr: the
// deepest route on the path through addr's slot, or else through the
// short trie.
func (t *Patricia) Lookup(addr netaddr.Addr) (Entry, bool) {
	f := addr.Family()
	var hop uint32
	if d := t.dir[f]; d != nil {
		hop = t.lookup(d[uint16(slot16(addr))], addr)
	}
	if hop == 0 {
		hop = t.lookup(t.short[f], addr)
	}
	if hop == 0 {
		return Entry{}, false
	}
	return t.hops[hop-1], true
}

// lookup descends from node i while node prefixes contain addr, returning
// the deepest hop seen, 0 for none.
func (t *Patricia) lookup(i uint32, addr netaddr.Addr) uint32 {
	var hop uint32
	bits := addr.Bits()
	for i != 0 {
		n := t.node(i)
		if !n.prefix.Contains(addr) {
			break
		}
		if n.hop != 0 {
			hop = n.hop
		}
		if n.prefix.Len() == bits {
			break
		}
		i = n.child[addr.Bit(n.prefix.Len())]
	}
	return hop
}

// LookupExact returns the entry stored for exactly this prefix.
func (t *Patricia) LookupExact(p netaddr.Prefix) (Entry, bool) {
	link := t.top(p, false)
	if link == nil {
		return Entry{}, false
	}
	for i := *link; i != 0; {
		n := t.node(i)
		if n.prefix == p {
			if n.hop != 0 {
				return t.hops[n.hop-1], true
			}
			return Entry{}, false
		}
		if n.prefix.Len() >= p.Len() || !n.prefix.Contains(p.Addr()) {
			return Entry{}, false
		}
		i = n.child[p.Addr().Bit(n.prefix.Len())]
	}
	return Entry{}, false
}

// Len returns the number of installed prefixes.
func (t *Patricia) Len() int { return t.n }

// Walk visits entries in address order, IPv4 before IPv6: per family it
// walks the short trie in order and, before each short route, the slots
// whose addresses sort before it.
func (t *Patricia) Walk(fn func(netaddr.Prefix, Entry) bool) {
	for _, f := range netaddr.Families {
		d, next := t.dir[f], 0 // next is the first slot not yet walked
		slotsBefore := func(end int) bool {
			for ; d != nil && next < end; next++ {
				if !t.walk(d[next], fn) {
					return false
				}
			}
			return true
		}
		short := func(p netaddr.Prefix, e Entry) bool {
			return slotsBefore(int(slot16(p.Addr()))) && fn(p, e)
		}
		if !t.walk(t.short[f], short) || !slotsBefore(1<<chunkBits) {
			return
		}
	}
}

func (t *Patricia) walk(i uint32, fn func(netaddr.Prefix, Entry) bool) bool {
	if i == 0 {
		return true
	}
	n := t.node(i)
	if n.hop != 0 {
		if !fn(n.prefix, t.hops[n.hop-1]) {
			return false
		}
	}
	return t.walk(n.child[0], fn) && t.walk(n.child[1], fn)
}

// Apply performs the batch as ordered single ops. The trie has no cheaper
// bulk restructuring: after the slot load every op's descent is private
// to its own subtrie, so a batch shares no work between ops, and sorting
// a batch by prefix to walk shared spines once measured no gain.
func (p *Patricia) Apply(ops []Op) { applyOps(p, ops) }
