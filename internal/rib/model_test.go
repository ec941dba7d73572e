package rib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// refRIB is the Loc-RIB written the obvious way: every candidate of a
// prefix in a slice, in the order its peer first offered it, and the best
// recomputed from scratch with Best on every query. The RIB must agree
// with it on every result. The order is part of the model: Better is not
// transitive once MED applies, so Best's answer can depend on it.
type refRIB struct {
	peers map[netaddr.Addr]PeerInfo
	cands map[netaddr.Prefix][]Candidate
	drops uint64
}

func newRefRIB() *refRIB {
	return &refRIB{peers: map[netaddr.Addr]PeerInfo{}, cands: map[netaddr.Prefix][]Candidate{}}
}

func (m *refRIB) best(p netaddr.Prefix) Candidate {
	if i := Best(m.cands[p]); i >= 0 {
		return m.cands[p][i]
	}
	return Candidate{}
}

// find returns the index of the peer's candidate for p, or -1.
func (m *refRIB) find(p netaddr.Prefix, peer netaddr.Addr) int {
	return slices.IndexFunc(m.cands[p], func(c Candidate) bool { return c.Peer.Addr == peer })
}

func (m *refRIB) transition(p netaddr.Prefix, old Candidate) (Change, bool) {
	cur := m.best(p)
	if old.Peer.Addr == cur.Peer.Addr && attrsEqual(old.Attrs, cur.Attrs) {
		return Change{}, false
	}
	return Change{Prefix: p, Old: old, New: cur}, true
}

func (m *refRIB) announce(peer netaddr.Addr, p netaddr.Prefix, attrs *wire.PathAttrs) (Change, bool) {
	pi, ok := m.peers[peer]
	if !ok {
		m.drops++
		return Change{}, false
	}
	old := m.best(p)
	c := Candidate{Peer: pi, Attrs: attrs}
	if i := m.find(p, peer); i >= 0 {
		m.cands[p][i] = c
	} else {
		m.cands[p] = append(m.cands[p], c)
	}
	return m.transition(p, old)
}

func (m *refRIB) withdraw(peer netaddr.Addr, p netaddr.Prefix) (Change, bool) {
	i := m.find(p, peer)
	if i < 0 {
		return Change{}, false
	}
	old := m.best(p)
	m.cands[p] = slices.Delete(m.cands[p], i, i+1)
	if len(m.cands[p]) == 0 {
		delete(m.cands, p)
	}
	return m.transition(p, old)
}

func (m *refRIB) removePeer(peer netaddr.Addr) []Change {
	var ps []netaddr.Prefix
	for p := range m.cands {
		if m.find(p, peer) >= 0 {
			ps = append(ps, p)
		}
	}
	slices.SortFunc(ps, netaddr.Prefix.Compare)
	var out []Change
	for _, p := range ps {
		if ch, ok := m.withdraw(peer, p); ok {
			out = append(out, ch)
		}
	}
	delete(m.peers, peer)
	return out
}

// Model inputs: four peers whose tie-break fields cover every rule after
// the path attributes (eBGP over iBGP, lower ID, and equal IDs falling to
// the address), eight prefixes in both families, and attribute sets that
// differ in LOCAL_PREF, path length, ORIGIN and MED. Three of them close
// a MED cycle between suitable peers: (1 5) MED 10 loses to (1 6) MED 5
// on MED, while (2 9) is compared with either only on the peers.
var (
	modelPeers = [4]PeerInfo{
		peer("10.0.0.1", "9.9.9.9", 100, true),
		peer("10.0.0.2", "2.2.2.2", 200, false),
		peer("10.0.0.3", "3.3.3.3", 100, true),
		peer("10.0.0.4", "3.3.3.3", 300, true),
	}
	modelPrefixes = [8]netaddr.Prefix{
		pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("10.1.2.0/24"), pfx("192.0.2.0/24"),
		pfx("0.0.0.0/0"), pfx("2001:db8::/32"), pfx("2001:db8:1::/48"), pfx("198.51.100.7/32"),
	}
	modelAttrs = func() []*wire.PathAttrs {
		med := func(a *wire.PathAttrs, v uint32) *wire.PathAttrs { a.HasMED, a.MED = true, v; return a }
		lp := func(a *wire.PathAttrs, v uint32) *wire.PathAttrs { a.HasLocalPref, a.LocalPref = true, v; return a }
		egp := func(a *wire.PathAttrs) *wire.PathAttrs { a.Origin = wire.OriginEGP; return a }
		return []*wire.PathAttrs{
			baseAttrs(1), baseAttrs(1, 2), baseAttrs(2, 9), baseAttrs(7),
			med(baseAttrs(1, 5), 10), med(baseAttrs(1, 6), 5), lp(baseAttrs(1, 2, 3, 4), 200), egp(baseAttrs(8)),
		}
	}()
)

// modelIDs follows the Loc-RIB ids the RIB reports in its changes. The
// reference has no ids, so it checks what they must satisfy: a prefix
// keeps its id while it has a best route, no two such prefixes share one,
// and a change names the id the RIB files the prefix under.
type modelIDs struct {
	live   map[netaddr.Prefix]uint32 // id of every prefix with a best route
	owner  map[uint32]netaddr.Prefix // last prefix each id was given to
	reused int                       // ids given to a prefix other than their last
}

func newModelIDs() *modelIDs {
	return &modelIDs{live: map[netaddr.Prefix]uint32{}, owner: map[uint32]netaddr.Prefix{}}
}

// note checks one change's id against the prefixes' ids so far and
// records it.
func (ids *modelIDs) note(t *testing.T, step int, ch Change) {
	t.Helper()
	prev, live := ids.live[ch.Prefix]
	switch {
	case live && ch.ID != prev:
		t.Fatalf("step %d: change %s moved %v from id %d to %d", step, describe(ch), ch.Prefix, prev, ch.ID)
	case ch.New.Attrs == nil:
		delete(ids.live, ch.Prefix)
		return
	case !live:
		for q, id := range ids.live {
			if id == ch.ID {
				t.Fatalf("step %d: new prefix %v took id %d, still held by %v", step, ch.Prefix, id, q)
			}
		}
		if o, seen := ids.owner[ch.ID]; seen && o != ch.Prefix {
			ids.reused++
		}
		ids.owner[ch.ID] = ch.Prefix
	}
	ids.live[ch.Prefix] = ch.ID
}

// noID strips a change's id for comparison with the reference's.
func noID(ch Change) Change {
	ch.ID = 0
	return ch
}

// runModel interprets ops two bytes at a time against a RIB and refRIB.
// The first byte picks the operation (bits 0-2: announce 0-3, withdraw
// 4-5, RemovePeer 6, AddPeer 7) and the peer (bits 3-4); the second picks
// the prefix (bits 0-2) and the attribute set (bits 3-5). Every result is
// compared as it is returned, and the whole table after every operation.
// The stream ends with every route withdrawn and the prefixes announced
// again in reverse order, so each one comes back under an id another
// held. It reports the most candidates any prefix held, how many peers
// were registered again after a removal and how many ids were reused.
func runModel(t *testing.T, peers int, ops []byte) (maxCands, reAdds, reused int) {
	t.Helper()
	r, m, ids := New(), newRefRIB(), newModelIDs()
	removed := map[netaddr.Addr]bool{}
	for i := 0; i < peers; i++ {
		r.AddPeer(modelPeers[i])
		m.peers[modelPeers[i].Addr] = modelPeers[i]
	}
	announce := func(step int, pi PeerInfo, p netaddr.Prefix, attrs *wire.PathAttrs) {
		wantHad := m.find(p, pi.Addr) >= 0
		got, gok, had := r.AnnounceHad(pi.Addr, p, attrs)
		want, wok := m.announce(pi.Addr, p, attrs)
		if noID(got) != want || gok != wok || had != wantHad {
			t.Fatalf("step %d: AnnounceHad(%v, %v) = %s/%v/%v, want %s/%v/%v", step, pi.Addr, p, describe(got), gok, had, describe(want), wok, wantHad)
		}
		if gok {
			ids.note(t, step, got)
		}
	}
	withdraw := func(step int, pi PeerInfo, p netaddr.Prefix) {
		wantHad := m.find(p, pi.Addr) >= 0
		got, gok, had := r.WithdrawHad(pi.Addr, p)
		want, wok := m.withdraw(pi.Addr, p)
		if noID(got) != want || gok != wok || had != wantHad {
			t.Fatalf("step %d: WithdrawHad(%v, %v) = %s/%v/%v, want %s/%v/%v", step, pi.Addr, p, describe(got), gok, had, describe(want), wok, wantHad)
		}
		if gok {
			ids.note(t, step, got)
		}
	}
	step := 0
	for ; step+1 < len(ops); step += 2 {
		op, arg := ops[step], ops[step+1]
		pi := modelPeers[op>>3&3]
		p := modelPrefixes[arg&7]
		attrs := modelAttrs[arg>>3&7]
		switch kind := op & 7; {
		case kind < 4:
			announce(step, pi, p, attrs)
		case kind < 6:
			withdraw(step, pi, p)
		case kind == 6:
			if _, ok := m.peers[pi.Addr]; ok {
				removed[pi.Addr] = true
			}
			got, want := r.RemovePeer(pi.Addr), m.removePeer(pi.Addr)
			stripped := make([]Change, len(got))
			for i, ch := range got {
				stripped[i] = noID(ch)
				ids.note(t, step, ch)
			}
			if !slices.Equal(stripped, want) {
				t.Fatalf("step %d: RemovePeer(%v) = %s, want %s", step, pi.Addr, describeAll(got), describeAll(want))
			}
		default:
			if _, ok := m.peers[pi.Addr]; !ok && removed[pi.Addr] {
				reAdds++
			}
			r.AddPeer(pi)
			m.peers[pi.Addr] = pi
		}
		maxCands = max(maxCands, checkAgainstModel(t, step, r, m, ids))
	}
	// Withdraw all, then announce other prefixes into the freed ids.
	for _, p := range modelPrefixes {
		for _, pi := range modelPeers {
			withdraw(step, pi, p)
		}
		checkAgainstModel(t, step, r, m, ids)
	}
	for i := len(modelPrefixes) - 1; i >= 0; i-- {
		for _, pi := range modelPeers[:max(peers, 1)] {
			announce(step, pi, modelPrefixes[i], modelAttrs[i])
		}
		checkAgainstModel(t, step, r, m, ids)
	}
	return maxCands, reAdds, ids.reused
}

// describe prints a change with both ends' peers and attribute pointers,
// which Change.String leaves out.
func describe(ch Change) string {
	return fmt.Sprintf("{%v old %v %p, new %v %p}", ch.Prefix, ch.Old.Peer.Addr, ch.Old.Attrs, ch.New.Peer.Addr, ch.New.Attrs)
}

func describeAll(chs []Change) []string {
	out := make([]string, len(chs))
	for i, ch := range chs {
		out[i] = describe(ch)
	}
	return out
}

// checkAgainstModel compares every query of r with m, and the id r files
// each prefix under with the one its changes named, and returns the
// largest candidate set.
func checkAgainstModel(t *testing.T, step int, r *RIB, m *refRIB, ids *modelIDs) (maxCands int) {
	t.Helper()
	if r.Len() != len(m.cands) {
		t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(m.cands))
	}
	if r.UnregisteredDrops() != m.drops {
		t.Fatalf("step %d: UnregisteredDrops = %d, want %d", step, r.UnregisteredDrops(), m.drops)
	}
	for _, p := range modelPrefixes {
		want := m.best(p)
		got, ok := r.Lookup(p)
		if got != want || ok != (want.Attrs != nil) {
			t.Fatalf("step %d: Lookup(%v) = %v/%v, want %v", step, p, got, ok, want)
		}
		id, got, ok := r.Entry(p)
		if wantID, live := ids.live[p]; got != want || ok != live || (ok && id != wantID) {
			t.Fatalf("step %d: Entry(%v) = %d/%v/%v, want %d/%v/%v", step, p, id, got, ok, wantID, want, live)
		}
		if cands := r.Candidates(p); !slices.Equal(cands, m.cands[p]) {
			t.Fatalf("step %d: Candidates(%v) = %v, want %v", step, p, cands, m.cands[p])
		}
		maxCands = max(maxCands, len(m.cands[p]))
		for _, pi := range modelPeers {
			got, ok := r.CandidateOf(pi.Addr, p)
			var want Candidate
			i := m.find(p, pi.Addr)
			if i >= 0 {
				want = m.cands[p][i]
			}
			if wok := i >= 0; got != want || ok != wok {
				t.Fatalf("step %d: CandidateOf(%v, %v) = %v/%v, want %v/%v", step, pi.Addr, p, got, ok, want, wok)
			}
		}
	}
	var walked []netaddr.Prefix
	r.WalkLoc(func(p netaddr.Prefix, c Candidate) bool {
		if want := m.best(p); c != want {
			t.Fatalf("step %d: WalkLoc(%v) = %v, want %v", step, p, c, want)
		}
		walked = append(walked, p)
		return true
	})
	want := make([]netaddr.Prefix, 0, len(m.cands))
	for p := range m.cands {
		want = append(want, p)
	}
	slices.SortFunc(want, netaddr.Prefix.Compare)
	if !slices.Equal(walked, want) {
		t.Fatalf("step %d: WalkLoc visited %v, want %v", step, walked, want)
	}
	return maxCands
}

// TestLocRIBMatchesModel runs seeded random operation sequences over one
// to four peers against the naive model. The sequences must reach every
// candidate-set size up to three, register removed peers again, which
// reuses their indices, and give freed Loc-RIB ids to other prefixes.
// Forty seeds never withdraw the middle route of a MED cycle while the
// other two remain; a hundred do.
func TestLocRIBMatchesModel(t *testing.T) {
	maxCands, reAdds, reused := 0, 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 1200)
		rng.Read(ops)
		c, a, u := runModel(t, 1+int(seed%4), ops)
		maxCands, reAdds, reused = max(maxCands, c), reAdds+a, reused+u
	}
	if maxCands < 3 || reAdds == 0 || reused == 0 {
		t.Fatalf("sequences reached %d candidates per prefix, %d re-registrations and %d reused ids; want >= 3, > 0 and > 0", maxCands, reAdds, reused)
	}
}

// FuzzLocRIBModel is TestLocRIBMatchesModel over arbitrary operation
// streams; the first byte picks the number of initially registered peers.
func FuzzLocRIBModel(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x00, 0x08, 0x08, 0x10, 0x10, 0x04, 0x00, 0x0e, 0x00, 0x1f, 0x01, 0x18, 0x00})
	f.Add([]byte{1, 0x00, 0x31, 0x07, 0x00, 0x08, 0x09, 0x06, 0x00, 0x0f, 0x00, 0x08, 0x12, 0x00, 0x03})
	f.Add([]byte{0, 0x07, 0x00, 0x00, 0x05, 0x1f, 0x00, 0x18, 0x05, 0x16, 0x00, 0x17, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runModel(t, int(data[0]%5), data[1:])
	})
}

// TestLocRIBSteadyStateAllocs: once a table and its overflow slab have
// been built, withdrawing and re-announcing every route allocates
// nothing — no per-decision copy, no per-prefix entry, no candidate slot
// — and neither slab grows: every freed id and slot is taken again.
func TestLocRIBSteadyStateAllocs(t *testing.T) {
	r := New()
	r.AddPeer(peerA)
	r.AddPeer(peerB)
	short, long := baseAttrs(100, 1), baseAttrs(200, 1, 2)
	prefixes := make([]netaddr.Prefix, 2048)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<12), 20)
	}
	cycle := func() {
		for i, p := range prefixes {
			r.Withdraw(peerA.Addr, p)
			if i%2 == 0 {
				r.Withdraw(peerB.Addr, p)
			}
		}
		for i, p := range prefixes {
			r.Announce(peerA.Addr, p, short)
			if i%2 == 0 {
				r.Announce(peerB.Addr, p, long)
			}
		}
	}
	cycle()
	cycle()
	slots, ids := len(r.over.s), len(r.loc.s)
	if got := testing.AllocsPerRun(5, cycle); got != 0 {
		t.Fatalf("withdraw-all + announce-all allocated %v times per cycle, want 0", got)
	}
	if len(r.over.s) != slots {
		t.Fatalf("overflow slab grew from %d to %d slots over the cycles", slots, len(r.over.s))
	}
	if len(r.loc.s) != ids {
		t.Fatalf("Loc-RIB grew from %d to %d ids over the cycles", ids, len(r.loc.s))
	}
	if r.Len() != len(prefixes) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(prefixes))
	}
}
