package rib

import (
	"math/rand"
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

func newRIB2() *RIB {
	r := New()
	r.AddPeer(peerA)
	r.AddPeer(peerB)
	return r
}

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func TestAnnounceWithdrawLifecycle(t *testing.T) {
	r := newRIB2()
	p := pfx("10.0.0.0/8")

	ch, ok := r.Announce(peerA.Addr, p, baseAttrs(100, 1))
	if !ok || ch.Old.Attrs != nil || ch.New.Attrs == nil {
		t.Fatalf("first announce: %+v %v", ch, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}

	// Duplicate announce: no change.
	if _, ok := r.Announce(peerA.Addr, p, baseAttrs(100, 1)); ok {
		t.Fatal("duplicate announce should not produce a change")
	}

	// Withdraw removes the route entirely.
	ch, ok = r.Withdraw(peerA.Addr, p)
	if !ok || ch.New.Attrs != nil || ch.Old.Attrs == nil {
		t.Fatalf("withdraw: %+v %v", ch, ok)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after withdraw = %d", r.Len())
	}

	// Withdraw of an absent route: no change.
	if _, ok := r.Withdraw(peerA.Addr, p); ok {
		t.Fatal("withdraw of absent route should be a no-op")
	}
}

// TestAnnounceFromUnregisteredPeerDropped: the data path never panics.
// An announcement from a peer the RIB does not know (or no longer knows,
// after RemovePeer) is refused, leaves the Loc-RIB untouched, and is
// counted — per RIB and summed by Sharded.
func TestAnnounceFromUnregisteredPeerDropped(t *testing.T) {
	sh := NewSharded(2)
	p := pfx("10.0.0.0/8")
	r := sh.ShardFor(p)
	if ch, ok := r.Announce(peerA.Addr, p, baseAttrs(1)); ok {
		t.Fatalf("unregistered announce produced change %v", ch)
	}
	r.AddPeer(peerA)
	if _, ok := r.Announce(peerA.Addr, p, baseAttrs(1)); !ok {
		t.Fatal("registered announce refused")
	}
	r.RemovePeer(peerA.Addr)
	if _, ok := r.Announce(peerA.Addr, p, baseAttrs(1)); ok {
		t.Fatal("announce after RemovePeer accepted")
	}
	if r.Len() != 0 || len(r.Candidates(p)) != 0 {
		t.Fatalf("dropped announcements left state: len=%d cands=%v", r.Len(), r.Candidates(p))
	}
	if got := r.UnregisteredDrops(); got != 2 {
		t.Fatalf("RIB.UnregisteredDrops = %d, want 2", got)
	}
	if got := sh.UnregisteredDrops(); got != 2 {
		t.Fatalf("Sharded.UnregisteredDrops = %d, want 2", got)
	}
}

func TestTwoPeersBestSelection(t *testing.T) {
	r := newRIB2()
	p := pfx("10.0.0.0/8")

	// Peer A announces a long path (like Speaker 1 in the benchmark).
	r.Announce(peerA.Addr, p, baseAttrs(100, 1, 2, 3))
	// Peer B announces a longer path (Scenario 5/6): best must not change.
	if _, ok := r.Announce(peerB.Addr, p, baseAttrs(200, 1, 2, 3, 4)); ok {
		t.Fatal("longer path should not displace best route")
	}
	best, _ := r.Lookup(p)
	if best.Peer.Addr != peerA.Addr {
		t.Fatal("best should remain peer A")
	}

	// Peer B announces a shorter path (Scenario 7/8): best changes.
	ch, ok := r.Announce(peerB.Addr, p, baseAttrs(200, 1))
	if !ok || ch.New.Peer.Addr != peerB.Addr || ch.Old.Peer.Addr != peerA.Addr {
		t.Fatalf("shorter path should win: %+v %v", ch, ok)
	}

	// Withdrawing the new best falls back to peer A.
	ch, ok = r.Withdraw(peerB.Addr, p)
	if !ok || ch.New.Peer.Addr != peerA.Addr {
		t.Fatalf("fallback: %+v %v", ch, ok)
	}
	if len(r.Candidates(p)) != 1 {
		t.Fatalf("candidates = %d", len(r.Candidates(p)))
	}
}

// TestLocRIBMEDCycle: MED makes Better non-transitive, so three routes
// can each beat another. Every decision runs Best over all remaining
// candidates in arrival order: once the cycle's middle route leaves, the
// two left are compared with each other although neither changed.
func TestLocRIBMEDCycle(t *testing.T) {
	pa := peer("10.0.0.3", "3.3.3.3", 100, true)
	pb := peer("10.0.0.1", "9.9.9.9", 100, true)
	pc := peer("10.0.0.4", "3.3.3.3", 300, true)
	a, b, c := baseAttrs(1, 5), baseAttrs(1, 6), baseAttrs(2, 9)
	a.HasMED, a.MED = true, 10
	b.HasMED, b.MED = true, 5
	ca, cb, cc := cand(pa, a), cand(pb, b), cand(pc, c)
	if !Better(cb, ca) || !Better(cc, cb) || !Better(ca, cc) {
		t.Fatal("attribute sets do not form a MED cycle")
	}
	r := New()
	for _, pi := range []PeerInfo{pa, pb, pc} {
		r.AddPeer(pi)
	}
	p := pfx("192.0.2.0/24")
	r.Announce(pa.Addr, p, a)
	r.Announce(pb.Addr, p, b)
	r.Announce(pc.Addr, p, c)
	if best, _ := r.Lookup(p); best != cc {
		t.Fatalf("best of A, B, C in arrival order = %v, want C", best.Peer.Addr)
	}
	ch, ok := r.Withdraw(pb.Addr, p)
	if !ok || ch.Old != cc || ch.New != ca {
		t.Fatalf("withdrawing B = %s/%v, want C -> A", describe(ch), ok)
	}
}

func TestRemovePeer(t *testing.T) {
	r := newRIB2()
	for i := 0; i < 50; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<16), 16)
		r.Announce(peerA.Addr, p, baseAttrs(100, uint32(i+1)))
		if i%2 == 0 {
			r.Announce(peerB.Addr, p, baseAttrs(200, uint32(i+1))) // equal length; A wins on ID
		}
	}
	changes := r.RemovePeer(peerA.Addr)
	if len(changes) != 50 {
		t.Fatalf("changes = %d, want 50", len(changes))
	}
	// Prefixes with a B candidate switch; the rest are removed.
	switched, removed := 0, 0
	for _, ch := range changes {
		if ch.New.Attrs != nil {
			switched++
		} else {
			removed++
		}
	}
	if switched != 25 || removed != 25 {
		t.Fatalf("switched=%d removed=%d", switched, removed)
	}
	if r.Len() != 25 {
		t.Fatalf("Len = %d, want 25", r.Len())
	}
	if len(r.Peers()) != 1 {
		t.Fatalf("Peers = %d, want 1", len(r.Peers()))
	}
}

func TestWalkLocOrderedAndComplete(t *testing.T) {
	r := newRIB2()
	want := 200
	for i := 0; i < want; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<12), 20)
		r.Announce(peerA.Addr, p, baseAttrs(100, uint32(i%7+1)))
	}
	var prev netaddr.Prefix
	count := 0
	r.WalkLoc(func(p netaddr.Prefix, c Candidate) bool {
		if count > 0 && prev.Compare(p) >= 0 {
			t.Fatalf("WalkLoc out of order: %v then %v", prev, p)
		}
		prev = p
		count++
		return true
	})
	if count != want {
		t.Fatalf("visited %d, want %d", count, want)
	}
	// Early termination.
	count = 0
	r.WalkLoc(func(netaddr.Prefix, Candidate) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestLocRIBInvariant: after a random operation sequence, every Loc-RIB
// best equals the decision-process winner over its candidates, recomputed
// from scratch.
func TestLocRIBInvariant(t *testing.T) {
	r := newRIB2()
	rng := rand.New(rand.NewSource(77))
	peers := []PeerInfo{peerA, peerB}
	prefixes := make([]netaddr.Prefix, 40)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<20), 12)
	}
	for op := 0; op < 5000; op++ {
		p := prefixes[rng.Intn(len(prefixes))]
		peer := peers[rng.Intn(2)]
		if rng.Intn(3) == 0 {
			r.Withdraw(peer.Addr, p)
		} else {
			n := 1 + rng.Intn(4)
			asns := make([]uint32, n)
			for i := range asns {
				asns[i] = uint32(1 + rng.Intn(10))
			}
			r.Announce(peer.Addr, p, baseAttrs(asns...))
		}
	}
	for _, p := range prefixes {
		cands := r.Candidates(p)
		best, ok := r.Lookup(p)
		if len(cands) == 0 {
			if ok {
				t.Fatalf("%v: best exists with no candidates", p)
			}
			continue
		}
		if !ok {
			t.Fatalf("%v: candidates exist but no best", p)
		}
		idx := Best(cands)
		if cands[idx].Peer.Addr != best.Peer.Addr || !attrsEqual(cands[idx].Attrs, best.Attrs) {
			t.Fatalf("%v: stored best differs from recomputed best", p)
		}
	}
	if r.Decisions() == 0 {
		t.Fatal("decision counter not incremented")
	}
}

func TestAdjOutDedup(t *testing.T) {
	o := NewAdjOut()
	const id = 3
	a := baseAttrs(1, 2)

	if old, changed := o.Advertise(id, a); !changed || old != nil {
		t.Fatalf("first advertise = (%v, %v), want a change from nothing", old, changed)
	}
	if old, changed := o.Advertise(id, a); changed || old != a {
		t.Fatal("identical re-advertise should be suppressed and return the held attrs")
	}
	b := baseAttrs(1, 2, 3)
	if old, changed := o.Advertise(id, b); !changed || old != a {
		t.Fatal("changed attributes should report a change from the previous attrs")
	}
	if got, ok := o.Lookup(id); !ok || !attrsEqual(got, b) {
		t.Fatal("Lookup returned wrong attrs")
	}
	if _, ok := o.Lookup(id - 1); ok {
		t.Fatal("Lookup found an id never advertised")
	}
	if old, had := o.Withdraw(id); !had || old != b {
		t.Fatal("withdraw of advertised prefix should return what was held")
	}
	if old, had := o.Withdraw(id); had || old != nil {
		t.Fatal("double withdraw should be suppressed")
	}
	if old, had := o.Withdraw(id + 100); had || old != nil {
		t.Fatal("withdraw past the column's end should be a no-op")
	}
	if o.Len() != 0 {
		t.Fatalf("Len = %d", o.Len())
	}
}

func TestAdjOutWalkOrdered(t *testing.T) {
	r, o := newRIB2(), NewAdjOut()
	for i := 20; i > 0; i-- {
		a := baseAttrs(uint32(i))
		ch, _ := r.Announce(peerA.Addr, netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<24), 8), a)
		o.Advertise(ch.ID, a)
	}
	var prev netaddr.Prefix
	n := 0
	o.WalkMember(r, peerB.Addr, func(p netaddr.Prefix, _ *wire.PathAttrs) bool {
		if n > 0 && prev.Compare(p) >= 0 {
			t.Fatalf("Walk out of order")
		}
		prev = p
		n++
		return true
	})
	if n != 20 {
		t.Fatalf("visited %d", n)
	}
	o.WalkMember(r, peerA.Addr, func(netaddr.Prefix, *wire.PathAttrs) bool {
		t.Fatal("the originator was shown its own routes")
		return false
	})
}

func TestChangeString(t *testing.T) {
	c := Candidate{Peer: peerA, Attrs: baseAttrs(1)}
	for _, ch := range []Change{
		{Prefix: pfx("10.0.0.0/8"), New: c},
		{Prefix: pfx("10.0.0.0/8"), Old: c},
		{Prefix: pfx("10.0.0.0/8"), Old: c, New: c},
	} {
		if ch.String() == "" {
			t.Error("empty Change.String()")
		}
	}
}
