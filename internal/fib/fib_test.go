package fib

import (
	"math/rand"
	"slices"
	"testing"

	"bgpbench/internal/netaddr"
)

func allEngines(t *testing.T) map[string]Engine {
	t.Helper()
	out := make(map[string]Engine, len(EngineNames))
	for _, name := range EngineNames {
		e, err := NewEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	return out
}

func TestNewEngineUnknown(t *testing.T) {
	if _, err := NewEngine("btree"); err == nil {
		t.Fatal("unknown engine name should error")
	}
}

func TestBasicOperations(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			p8 := netaddr.MustParsePrefix("10.0.0.0/8")
			p16 := netaddr.MustParsePrefix("10.1.0.0/16")
			p24 := netaddr.MustParsePrefix("10.1.2.0/24")

			e.Insert(p8, Entry{Port: 1})
			e.Insert(p16, Entry{Port: 2})
			e.Insert(p24, Entry{Port: 3})
			if e.Len() != 3 {
				t.Fatalf("Len = %d, want 3", e.Len())
			}

			cases := []struct {
				addr string
				port int
				ok   bool
			}{
				{"10.1.2.3", 3, true},
				{"10.1.3.1", 2, true},
				{"10.2.0.1", 1, true},
				{"11.0.0.1", 0, false},
			}
			for _, c := range cases {
				got, ok := e.Lookup(netaddr.MustParseAddr(c.addr))
				if ok != c.ok || (ok && got.Port != c.port) {
					t.Errorf("Lookup(%s) = %+v,%v; want port %d,%v", c.addr, got, ok, c.port, c.ok)
				}
			}

			// Replacement does not change Len.
			e.Insert(p16, Entry{Port: 9})
			if e.Len() != 3 {
				t.Fatalf("Len after replace = %d, want 3", e.Len())
			}
			if got, _ := e.Lookup(netaddr.MustParseAddr("10.1.3.1")); got.Port != 9 {
				t.Fatalf("replace not visible: port %d", got.Port)
			}

			// Exact lookups.
			if got, ok := e.LookupExact(p24); !ok || got.Port != 3 {
				t.Fatalf("LookupExact(%v) = %+v,%v", p24, got, ok)
			}
			if _, ok := e.LookupExact(netaddr.MustParsePrefix("10.1.2.0/25")); ok {
				t.Fatal("LookupExact of absent prefix should miss")
			}

			// Deletion uncovers the shorter prefix.
			if !e.Delete(p24) {
				t.Fatal("Delete(p24) = false")
			}
			if e.Delete(p24) {
				t.Fatal("double Delete(p24) = true")
			}
			if got, _ := e.Lookup(netaddr.MustParseAddr("10.1.2.3")); got.Port != 9 {
				t.Fatalf("after delete, Lookup port = %d, want 9", got.Port)
			}
			if e.Len() != 2 {
				t.Fatalf("Len after delete = %d, want 2", e.Len())
			}
		})
	}
}

func TestDefaultRoute(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			e.Insert(netaddr.MustParsePrefix("0.0.0.0/0"), Entry{Port: 7})
			got, ok := e.Lookup(netaddr.MustParseAddr("203.0.113.99"))
			if !ok || got.Port != 7 {
				t.Fatalf("default route lookup = %+v,%v", got, ok)
			}
			if !e.Delete(netaddr.MustParsePrefix("0.0.0.0/0")) {
				t.Fatal("cannot delete default route")
			}
			if _, ok := e.Lookup(netaddr.MustParseAddr("203.0.113.99")); ok {
				t.Fatal("lookup should miss after deleting default route")
			}
		})
	}
}

func TestHostRoutes(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			h := netaddr.MustParsePrefix("192.0.2.1/32")
			e.Insert(h, Entry{Port: 4})
			if got, ok := e.Lookup(netaddr.MustParseAddr("192.0.2.1")); !ok || got.Port != 4 {
				t.Fatalf("host route lookup = %+v,%v", got, ok)
			}
			if _, ok := e.Lookup(netaddr.MustParseAddr("192.0.2.2")); ok {
				t.Fatal("host route must not match neighbours")
			}
		})
	}
}

func TestWalkVisitsAll(t *testing.T) {
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "0.0.0.0/0", "172.16.5.0/24"}
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			for i, s := range prefixes {
				e.Insert(netaddr.MustParsePrefix(s), Entry{Port: i})
			}
			seen := map[netaddr.Prefix]int{}
			e.Walk(func(p netaddr.Prefix, en Entry) bool {
				seen[p] = en.Port
				return true
			})
			if len(seen) != len(prefixes) {
				t.Fatalf("Walk visited %d entries, want %d", len(seen), len(prefixes))
			}
			for i, s := range prefixes {
				if seen[netaddr.MustParsePrefix(s)] != i {
					t.Errorf("prefix %s port = %d, want %d", s, seen[netaddr.MustParsePrefix(s)], i)
				}
			}
			// Early termination.
			count := 0
			e.Walk(func(netaddr.Prefix, Entry) bool {
				count++
				return count < 2
			})
			if count != 2 {
				t.Errorf("early-terminated Walk visited %d, want 2", count)
			}
		})
	}
}

// TestEnginesAgree drives all engines with the same random operation
// sequence and cross-checks every answer against the Linear reference.
func TestEnginesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	ref := NewLinear()
	others := map[string]Engine{
		"binary":   NewBinaryTrie(),
		"patricia": NewPatricia(),
		"hashlen":  NewHashLengths(),
		"poptrie":  NewPoptrie(),
		// SnapshotTable's method set matches Engine, so the concurrent
		// wrapper (and its publish-per-mutation path) rides along here.
		"snapshot": NewSnapshotTable(NewPoptrie()),
	}

	var inserted []netaddr.Prefix
	randomPrefix := func() netaddr.Prefix {
		// Cluster prefixes so deletes and overlaps actually happen.
		return netaddr.PrefixFrom(netaddr.AddrFromV4(r.Uint32()&0x0F0F0000), 4+r.Intn(29))
	}

	for op := 0; op < 6000; op++ {
		switch r.Intn(4) {
		case 0, 1: // insert
			p := randomPrefix()
			e := Entry{NextHop: netaddr.AddrFromV4(r.Uint32()), Port: r.Intn(16)}
			ref.Insert(p, e)
			for _, eng := range others {
				eng.Insert(p, e)
			}
			inserted = append(inserted, p)
		case 2: // delete
			var p netaddr.Prefix
			if len(inserted) > 0 && r.Intn(4) != 0 {
				p = inserted[r.Intn(len(inserted))]
			} else {
				p = randomPrefix()
			}
			want := ref.Delete(p)
			for name, eng := range others {
				if got := eng.Delete(p); got != want {
					t.Fatalf("op %d: %s.Delete(%v) = %v, want %v", op, name, p, got, want)
				}
			}
		case 3: // lookup
			addr := netaddr.AddrFromV4(r.Uint32() & 0x0F0F00FF)
			wantE, wantOK := ref.Lookup(addr)
			for name, eng := range others {
				gotE, gotOK := eng.Lookup(addr)
				if gotOK != wantOK || gotE != wantE {
					t.Fatalf("op %d: %s.Lookup(%v) = %+v,%v; want %+v,%v",
						op, name, addr, gotE, gotOK, wantE, wantOK)
				}
			}
		}
		if op%500 == 0 {
			for name, eng := range others {
				if eng.Len() != ref.Len() {
					t.Fatalf("op %d: %s.Len = %d, want %d", op, name, eng.Len(), ref.Len())
				}
			}
		}
	}

	// Final exhaustive agreement check across the inserted population.
	for _, p := range inserted {
		wantE, wantOK := ref.LookupExact(p)
		for name, eng := range others {
			gotE, gotOK := eng.LookupExact(p)
			if gotOK != wantOK || gotE != wantE {
				t.Fatalf("final: %s.LookupExact(%v) = %+v,%v; want %+v,%v",
					name, p, gotE, gotOK, wantE, wantOK)
			}
		}
	}
}

func TestTableCounters(t *testing.T) {
	tbl := NewTable(nil)
	p := netaddr.MustParsePrefix("10.0.0.0/8")
	tbl.Insert(p, Entry{Port: 1})
	tbl.Lookup(netaddr.MustParseAddr("10.1.1.1"))
	tbl.Lookup(netaddr.MustParseAddr("10.1.1.2"))
	tbl.Delete(p)
	if got := tbl.Updates(); got != 2 {
		t.Errorf("Updates = %d, want 2", got)
	}
	if got := tbl.Lookups(); got != 2 {
		t.Errorf("Lookups = %d, want 2", got)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d, want 0", tbl.Len())
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tbl := NewTable(NewPatricia())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			p := netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<12), 20)
			tbl.Insert(p, Entry{Port: i % 8})
			if i%3 == 0 {
				tbl.Delete(p)
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		tbl.Lookup(netaddr.AddrFromV4(uint32(i) << 12))
	}
	<-done
	tbl.Walk(func(netaddr.Prefix, Entry) bool { return true })
}

func TestPatriciaCompression(t *testing.T) {
	// Exercise split-node creation and cascading splice on delete.
	p := NewPatricia()
	a := netaddr.MustParsePrefix("10.0.0.0/24")
	b := netaddr.MustParsePrefix("10.0.1.0/24")
	c := netaddr.MustParsePrefix("10.0.0.0/16")
	p.Insert(a, Entry{Port: 1})
	p.Insert(b, Entry{Port: 2}) // forces a split node at /23
	p.Insert(c, Entry{Port: 3})
	if got, _ := p.Lookup(netaddr.MustParseAddr("10.0.0.1")); got.Port != 1 {
		t.Fatalf("port = %d, want 1", got.Port)
	}
	if !p.Delete(a) || !p.Delete(b) {
		t.Fatal("delete failed")
	}
	// The split node must be gone; /16 still answers.
	if got, ok := p.Lookup(netaddr.MustParseAddr("10.0.0.1")); !ok || got.Port != 3 {
		t.Fatalf("after deletes: %+v,%v", got, ok)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
	checkPatricia(t, p)

	// Delete-heavy churn over a clustered space: split points are created
	// and spliced out over and over, and every insert after the first
	// deletes takes a freed index. The trie must keep answering like the
	// linear reference and keep its shape.
	rng := rand.New(rand.NewSource(26))
	ref := NewLinear()
	var live []netaddr.Prefix
	for op := 0; op < 20000; op++ {
		// Grow to a few hundred routes, then delete three times in five.
		if dels := 2 + 2*min(len(live)/300, 1); len(live) > 0 && rng.Intn(6) < dels {
			k := rng.Intn(len(live))
			q := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if got, want := p.Delete(q), ref.Delete(q); got != want {
				t.Fatalf("op %d: Delete(%v) = %v, want %v", op, q, got, want)
			}
			continue
		}
		q := netaddr.PrefixFrom(netaddr.AddrFromV4(0x0A000000|rng.Uint32()&0x00FF0F00), 8+rng.Intn(25))
		if rng.Intn(4) == 0 {
			q = netaddr.PrefixFrom(netaddr.AddrFrom128(0x20010db800000000|uint64(rng.Uint32()&0xFF0F)<<16, 0), 32+rng.Intn(33))
		}
		e := Entry{NextHop: netaddr.AddrFromV4(uint32(rng.Intn(4))), Port: rng.Intn(3)}
		if _, ok := ref.LookupExact(q); !ok {
			live = append(live, q)
		}
		p.Insert(q, e)
		ref.Insert(q, e)
		if op%1000 == 0 {
			checkPatricia(t, p)
		}
	}
	checkPatricia(t, p)
	if p.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", p.Len(), ref.Len())
	}
	ref.Walk(func(q netaddr.Prefix, want Entry) bool {
		for _, a := range []netaddr.Addr{q.Addr(), q.Host(^uint64(0)), addrInc(q.Host(^uint64(0)))} {
			got, ok := p.Lookup(a)
			if w, wok := ref.Lookup(a); got != w || ok != wok {
				t.Fatalf("Lookup(%v) = %+v/%v, want %+v/%v", a, got, ok, w, wok)
			}
		}
		return true
	})
}

// checkPatricia verifies the trie's shape: every node either carries a
// route or splits two children, and each child extends its parent's
// prefix on the side it hangs from; every node under a directory slot is
// a /16 or longer with the slot's top bits, and every short-trie node is
// shorter than /16; nodes reachable from the slots and short tries and
// nodes on the free list together account for every index handed out;
// and every hop is inside the next-hop table.
func checkPatricia(t *testing.T, p *Patricia) {
	t.Helper()
	reachable, routes := 0, 0
	var visit func(i uint32, in func(netaddr.Prefix) bool)
	visit = func(i uint32, in func(netaddr.Prefix) bool) {
		if i == 0 {
			return
		}
		n := p.node(i)
		reachable++
		if !in(n.prefix) {
			t.Fatalf("%v: in the wrong slot or trie", n.prefix)
		}
		if n.hop != 0 {
			routes++
			if int(n.hop) > len(p.hops) {
				t.Fatalf("%v: hop %d outside a %d-entry table", n.prefix, n.hop, len(p.hops))
			}
		} else if n.child[0] == 0 || n.child[1] == 0 {
			t.Fatalf("%v: structural node with children %v", n.prefix, n.child)
		}
		for bit, ci := range n.child {
			if c := p.node(ci).prefix; ci != 0 && (c.Len() <= n.prefix.Len() || !n.prefix.Contains(c.Addr()) || c.Addr().Bit(n.prefix.Len()) != bit) {
				t.Fatalf("%v: child %d is %v", n.prefix, bit, c)
			}
			visit(ci, in)
		}
	}
	for _, f := range netaddr.Families {
		visit(p.short[f], func(q netaddr.Prefix) bool { return q.Family() == f && q.Len() < chunkBits })
		if p.dir[f] == nil {
			continue
		}
		for slot, i := range p.dir[f] {
			visit(i, func(q netaddr.Prefix) bool {
				return q.Family() == f && q.Len() >= chunkBits && slot16(q.Addr()) == uint32(slot)
			})
		}
	}
	free := 0
	for i := p.free; i != 0; i = p.node(i).child[0] {
		free++
	}
	if routes != p.Len() {
		t.Fatalf("%d nodes carry routes, Len = %d", routes, p.Len())
	}
	if reachable+free != int(p.used)-1 {
		t.Fatalf("%d reachable + %d free nodes, %d handed out", reachable, free, p.used-1)
	}
}

// patriciaTable is n distinct prefixes with entries drawn from a handful
// of next hops, as a router's FIB has: IPv4 /8–/24, and one in four IPv6
// /8–/48 clustered under sixteen /16 slots, so both the short tries and
// the slot subtries fill.
func patriciaTable(n int) []Op {
	rng := rand.New(rand.NewSource(int64(n)))
	seen := make(map[netaddr.Prefix]bool, n)
	ops := make([]Op, 0, n)
	for len(ops) < n {
		q := netaddr.PrefixFrom(netaddr.AddrFromV4(rng.Uint32()), 8+rng.Intn(17))
		if rng.Intn(4) == 0 {
			q = netaddr.PrefixFrom(netaddr.AddrFrom128(uint64(0x2000|rng.Intn(16))<<48|rng.Uint64()>>16, 0), 8+rng.Intn(41))
		}
		if seen[q] {
			continue
		}
		seen[q] = true
		ops = append(ops, Op{Prefix: q, Entry: Entry{NextHop: netaddr.AddrFromV4(uint32(1 + rng.Intn(4))), Port: rng.Intn(16)}})
	}
	return ops
}

// TestPatriciaReusesFreedNodes: insert-all, delete-all, insert-all of a
// 20k table hands out no new page, because the second fill takes every
// node from the free list the delete-all filled.
func TestPatriciaReusesFreedNodes(t *testing.T) {
	p := NewPatricia()
	ops := patriciaTable(20000)
	dels := make([]Op, len(ops))
	for i, op := range ops {
		dels[i] = Op{Prefix: op.Prefix, Delete: true}
	}
	p.Apply(ops)
	pages, used := len(p.pages), p.used
	p.Apply(dels)
	if p.Len() != 0 {
		t.Fatalf("Len after delete-all = %d", p.Len())
	}
	checkPatricia(t, p)
	p.Apply(ops)
	checkPatricia(t, p)
	if len(p.pages) != pages || p.used != used {
		t.Fatalf("refill grew the trie from %d pages (%d nodes) to %d (%d)", pages, used, len(p.pages), p.used)
	}
}

// TestPatriciaNextHopCompaction: entries no node forwards with any more
// are swept from the next-hop table, and the renumbered hops still
// resolve to the right entries.
func TestPatriciaNextHopCompaction(t *testing.T) {
	p := NewPatricia()
	ref := NewLinear()
	ops := patriciaTable(4000)
	for round := 0; round < 5; round++ {
		for i := range ops {
			// A distinct entry per route per round: without the sweep the
			// table would hold every entry ever installed.
			ops[i].Entry = Entry{NextHop: netaddr.AddrFromV4(uint32(round<<16 | i)), Port: round}
			if (i+round)%3 == 0 {
				ops[i].Delete = !ops[i].Delete
			}
		}
		p.Apply(ops)
		ref.Apply(ops)
		checkPatricia(t, p)
	}
	if bound := 2*p.Len() + int(p.used) + minHopLimit; len(p.hops) > bound {
		t.Fatalf("next-hop table holds %d entries for %d routes, bound %d", len(p.hops), p.Len(), bound)
	}
	p.compactHops()
	if len(p.hops) > p.Len() {
		t.Fatalf("after a sweep %d entries remain for %d routes", len(p.hops), p.Len())
	}
	ref.Walk(func(q netaddr.Prefix, want Entry) bool {
		if got, ok := p.LookupExact(q); !ok || got != want {
			t.Fatalf("LookupExact(%v) = %+v/%v, want %+v", q, got, ok, want)
		}
		return true
	})
}

// TestPatriciaSteadyStateAllocs: on a warm trie, deleting and re-inserting
// every route of both families allocates nothing — nodes come from the
// free list, entries from the next-hop table, and each family's root
// directory, allocated by its first /16-or-longer insert, stays.
func TestPatriciaSteadyStateAllocs(t *testing.T) {
	p := NewPatricia()
	ops := patriciaTable(20000)
	dels := make([]Op, len(ops))
	for i, op := range ops {
		dels[i] = Op{Prefix: op.Prefix, Delete: true}
	}
	p.Apply(ops)
	cycle := func() {
		p.Apply(dels)
		p.Apply(ops)
	}
	cycle()
	dirs := p.dir
	if dirs[netaddr.FamilyV4] == nil || dirs[netaddr.FamilyV6] == nil {
		t.Fatal("a family with /16-or-longer routes has no directory")
	}
	if got := testing.AllocsPerRun(5, cycle); got != 0 {
		t.Fatalf("delete-all + insert-all allocated %v times per cycle, want 0", got)
	}
	if p.dir != dirs {
		t.Fatal("a cycle replaced a root directory")
	}
}

// TestPatriciaStrideBoundaries drives prefixes around the /16 root
// directory, in both families (an IPv6 case puts the same 32 bits at the
// top of the address): /15, /16 and /17 at slot edges, a /8 above
// populated and empty slots, lookups that miss in their slot and fall
// back to the short trie, and the deletes that empty a slot. Every step
// is checked against the Linear reference, with Walk in its sorted order.
func TestPatriciaStrideBoundaries(t *testing.T) {
	for _, f := range netaddr.Families {
		t.Run(f.String(), func(t *testing.T) {
			addr := func(v uint32) netaddr.Addr {
				if f == netaddr.FamilyV6 {
					return netaddr.AddrFrom128(uint64(v)<<32, 0)
				}
				return netaddr.AddrFromV4(v)
			}
			pfx := func(v uint32, l int) netaddr.Prefix { return netaddr.PrefixFrom(addr(v), l) }
			p, ref := NewPatricia(), NewLinear()
			check := func(step string) {
				t.Helper()
				checkPatricia(t, p)
				if p.Len() != ref.Len() {
					t.Fatalf("%s: Len = %d, want %d", step, p.Len(), ref.Len())
				}
				var got, want []netaddr.Prefix
				p.Walk(func(q netaddr.Prefix, _ Entry) bool { got = append(got, q); return true })
				ref.Walk(func(q netaddr.Prefix, _ Entry) bool { want = append(want, q); return true })
				slices.SortFunc(want, netaddr.Prefix.Compare)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Walk = %v, want %v", step, got, want)
				}
				// Slot edges, the /8's empty slots and the addresses
				// around every route.
				probes := []uint32{0x09FFFFFF, 0x0A000000, 0x0A00FFFF, 0x0A010000, 0x0A017FFF, 0x0A018000,
					0x0A01FFFF, 0x0A020000, 0x0A020600, 0x0AC80001, 0x0AFFFFFF, 0x0B000000}
				for _, q := range want {
					v := uint32(q.Addr().Hi() >> 32)
					probes = append(probes, v, v|^uint32(0)>>q.Len(), v|^uint32(0)>>q.Len()+1)
				}
				for _, v := range probes {
					a := addr(v)
					g, gok := p.Lookup(a)
					if w, wok := ref.Lookup(a); g != w || gok != wok {
						t.Fatalf("%s: Lookup(%v) = %+v/%v, want %+v/%v", step, a, g, gok, w, wok)
					}
				}
			}
			ins := func(v uint32, l, port int) {
				p.Insert(pfx(v, l), Entry{Port: port})
				ref.Insert(pfx(v, l), Entry{Port: port})
			}
			del := func(v uint32, l int) {
				t.Helper()
				if got, want := p.Delete(pfx(v, l)), ref.Delete(pfx(v, l)); got != want {
					t.Fatalf("Delete(%v) = %v, want %v", pfx(v, l), got, want)
				}
			}
			slot := func(v uint32) uint32 { return p.dir[f][uint16(slot16(addr(v)))] }

			ins(0x0A000000, 15, 1) // spans slots 0x0A00 and 0x0A01
			ins(0x0A010000, 16, 2)
			ins(0x0A018000, 17, 3)
			ins(0x0A000000, 17, 4)
			check("/15, /16, /17")
			ins(0x0A000000, 8, 5) // above populated and empty slots
			ins(0x0A020500, 24, 6)
			ins(0x09FF0000, 16, 9)  // a slot that sorts before the /8
			ins(0x0A040000, 15, 10) // a short route that sorts after slots
			check("/8 and a /24 the /8 backs")
			if got, _ := p.Lookup(addr(0x0A020600)); got.Port != 5 {
				t.Fatalf("slot miss fell back to port %d, want the /8's 5", got.Port)
			}
			if got, _ := p.Lookup(addr(0x0A017FFF)); got.Port != 2 {
				t.Fatalf("/16 under the /15 answered port %d, want 2", got.Port)
			}
			if _, ok := p.LookupExact(pfx(0x0A010000, 17)); ok {
				t.Fatal("LookupExact found a /17 never inserted")
			}
			del(0x0A018000, 17)
			del(0x0A010000, 16)
			check("slot 0x0A01 emptied")
			if slot(0x0A010000) != 0 {
				t.Fatal("slot 0x0A01 still links a node after its last delete")
			}
			del(0x0A010000, 16) // absent
			del(0x0A020500, 24)
			del(0x0A000000, 17)
			del(0x09FF0000, 16)
			check("every slot emptied")
			for _, v := range []uint32{0x09FF0000, 0x0A000000, 0x0A020000} {
				if slot(v) != 0 {
					t.Fatalf("slot of %#x still links a node after its last delete", v)
				}
			}
			del(0x0A000000, 15)
			del(0x0A040000, 15)
			del(0x0A000000, 8)
			check("empty")
			if p.short[f] != 0 {
				t.Fatal("empty short trie still links a node")
			}
			ins(0, 0, 7) // the default route lives in the short trie
			ins(0xFFFF0000, 16, 8)
			check("/0 and the last slot")
		})
	}
}
