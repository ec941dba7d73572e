package fib

import "bgpbench/internal/netaddr"

// Patricia is a path-compressed binary trie (radix tree) with one root
// per address family: internal single-child chains are collapsed, so the
// node count is O(number of routes) and lookups take at most one branch
// per stored prefix on the path. This is the default engine for the
// router's FIB.
//
// Nodes are pointer-free values addressed by uint32 index in fixed-size
// pages, so the garbage collector never scans them and a page never
// moves. The entries they forward with are interned in a small next-hop
// table. Nodes a delete splices out go on a free list that later inserts
// take from; every write runs single-goroutine (Table's write lock), so no
// reader can hold an index while it is reused.
type Patricia struct {
	pages []*[nodePageSize]pNode
	used  uint32    // node indices handed out so far; index 0 is never a node
	free  uint32    // head of the free-node list, linked through child[0]
	roots [2]uint32 // indexed by netaddr.Family
	n     int

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
// or a family root without a route.
type pNode struct {
	prefix netaddr.Prefix
	hop    uint32    // 1 + index into Patricia.hops, 0 without a route
	child  [2]uint32 // node indices, 0 for none
}

// NewPatricia returns an empty path-compressed trie.
func NewPatricia() *Patricia {
	t := &Patricia{used: 1, hopIdx: make(map[Entry]uint32), hopLimit: minHopLimit}
	for _, f := range netaddr.Families {
		t.roots[f] = t.alloc(netaddr.PrefixFrom(netaddr.ZeroAddr(f), 0), 0)
	}
	return t
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

// commonPrefixLen returns the number of leading bits shared by a and b,
// capped at maxLen.
func commonPrefixLen(a, b netaddr.Addr, maxLen int) int {
	n := a.CommonPrefixLen(b)
	if n > maxLen {
		n = maxLen
	}
	return n
}

// Insert adds or replaces the entry for a prefix.
func (t *Patricia) Insert(p netaddr.Prefix, e Entry) {
	hop := t.intern(e)
	n := t.node(t.roots[p.Family()])
	for {
		if p == n.prefix {
			if n.hop == 0 {
				t.n++
			}
			n.hop = hop
			return
		}
		bit := p.Addr().Bit(n.prefix.Len())
		ci := n.child[bit]
		if ci == 0 {
			n.child[bit] = t.alloc(p, hop)
			t.n++
			return
		}
		c := t.node(ci)
		maxL := p.Len()
		if c.prefix.Len() < maxL {
			maxL = c.prefix.Len()
		}
		cpl := commonPrefixLen(p.Addr(), c.prefix.Addr(), maxL)
		switch {
		case cpl == c.prefix.Len():
			// c.prefix is a (proper) prefix of p: descend.
			n = c
		case cpl == p.Len():
			// p is a proper prefix of c.prefix: splice p above c.
			ni := t.alloc(p, hop)
			t.node(ni).child[c.prefix.Addr().Bit(p.Len())] = ci
			n.child[bit] = ni
			t.n++
			return
		default:
			// Paths diverge at cpl: create a forwarding-only split node.
			mi := t.alloc(netaddr.PrefixFrom(p.Addr(), cpl), 0)
			mid := t.node(mi)
			mid.child[c.prefix.Addr().Bit(cpl)] = ci
			mid.child[p.Addr().Bit(cpl)] = t.alloc(p, hop)
			n.child[bit] = mi
			t.n++
			return
		}
	}
}

// Delete removes a prefix, splicing out structural nodes that become
// redundant. Every structural node but a root has two children, so a
// delete frees at most the node and its parent split point.
func (t *Patricia) Delete(p netaddr.Prefix) bool {
	var parent, grand uint32
	parentBit, grandBit := 0, 0
	i := t.roots[p.Family()]
	for i != 0 && t.node(i).prefix != p {
		n := t.node(i)
		if n.prefix.Len() >= p.Len() || !n.prefix.Contains(p.Addr()) {
			return false
		}
		grand, grandBit = parent, parentBit
		parent, parentBit = i, p.Addr().Bit(n.prefix.Len())
		i = n.child[parentBit]
	}
	if i == 0 || t.node(i).hop == 0 {
		return false
	}
	n := t.node(i)
	n.hop = 0
	t.n--
	if parent == 0 {
		return true // a family root stays
	}
	switch {
	case n.child[0] != 0 && n.child[1] != 0:
		return true // still a necessary split point
	case n.child[0] != 0 || n.child[1] != 0:
		t.node(parent).child[parentBit] = n.child[0] | n.child[1]
		t.release(i)
		return true
	}
	t.release(i)
	pn := t.node(parent)
	pn.child[parentBit] = 0
	if grand != 0 && pn.hop == 0 {
		// The parent was a split point and is left with one child.
		t.node(grand).child[grandBit] = pn.child[0] | pn.child[1]
		t.release(parent)
	}
	return true
}

// Lookup descends while node prefixes contain addr, returning the deepest
// entry seen.
func (t *Patricia) Lookup(addr netaddr.Addr) (Entry, bool) {
	var hop uint32
	bits := addr.Bits()
	for i := t.roots[addr.Family()]; i != 0; {
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
	if hop == 0 {
		return Entry{}, false
	}
	return t.hops[hop-1], true
}

// LookupExact returns the entry stored for exactly this prefix.
func (t *Patricia) LookupExact(p netaddr.Prefix) (Entry, bool) {
	for i := t.roots[p.Family()]; i != 0; {
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

// Walk visits entries in address order, IPv4 before IPv6.
func (t *Patricia) Walk(fn func(netaddr.Prefix, Entry) bool) {
	for _, f := range netaddr.Families {
		if !t.walk(t.roots[f], fn) {
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

// Apply performs the batch as ordered single ops; the path-compressed trie
// has no cheaper bulk restructuring.
func (p *Patricia) Apply(ops []Op) { applyOps(p, ops) }
