package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// medPolicy builds the export policy for test group g: one
// always-matching term setting MED 2000+g. Different g values differ in
// export behavior, so they can never share an update group.
func medPolicy(g int) *policy.RouteMap {
	med := uint32(2000 + g)
	return &policy.RouteMap{
		Name: fmt.Sprintf("test-group-%d", g),
		Terms: []policy.Term{{
			Name:   "set-med",
			Set:    policy.Set{MED: &med},
			Action: policy.Permit,
		}},
	}
}

// recvSpeaker is a receive-only peer that reconstructs its table from
// the wire stream: the decoded routes are the ground truth of what the
// router actually emitted (shared-payload corruption or aliasing would
// surface here as decode failures or wrong attributes).
type recvSpeaker struct {
	sess        *session.Session
	established chan struct{}
	// delay throttles the read loop per UPDATE, so different receivers
	// drain a shared emission run at different rates.
	delay time.Duration

	mu    sync.Mutex
	table map[netaddr.Prefix]string
	// keepLog records every decoded UPDATE (diagnostics for the churn
	// tests' failure paths).
	keepLog bool
	logs    []wire.Update
}

func (s *recvSpeaker) Established(*session.Session) {
	select {
	case s.established <- struct{}{}:
	default:
	}
}

func (s *recvSpeaker) Update(_ *session.Session, u wire.Update) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keepLog {
		c := wire.Update{
			Withdrawn: append([]netaddr.Prefix(nil), u.Withdrawn...),
			NLRI:      append([]netaddr.Prefix(nil), u.NLRI...),
			Attrs:     u.Attrs,
		}
		s.logs = append(s.logs, c)
	}
	for _, p := range u.Withdrawn {
		delete(s.table, p)
	}
	if len(u.NLRI) > 0 {
		ab := string(wire.MarshalAttrs(u.Attrs))
		for _, p := range u.NLRI {
			s.table[p] = ab
		}
	}
}

func (s *recvSpeaker) Down(*session.Session, error) {}

func (s *recvSpeaker) stop() { s.sess.Stop() }

func (s *recvSpeaker) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// fingerprint renders the received table in sorted prefix order.
func (s *recvSpeaker) fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	prefixes := make([]netaddr.Prefix, 0, len(s.table))
	for p := range s.table {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Compare(prefixes[j]) < 0 })
	var b strings.Builder
	for _, p := range prefixes {
		fmt.Fprintf(&b, "%s %x\n", p, s.table[p])
	}
	return b.String()
}

func dialRecv(t *testing.T, r *Router, as uint32, id string, delay time.Duration) *recvSpeaker {
	t.Helper()
	sp := &recvSpeaker{
		established: make(chan struct{}, 1),
		delay:       delay,
		table:       make(map[netaddr.Prefix]string),
	}
	sp.sess = session.New(session.Config{
		FSM: fsm.Config{
			LocalAS:  as,
			LocalID:  netaddr.MustParseAddr(id),
			HoldTime: 90,
		},
		DialTarget: r.ListenAddr(),
		Handler:    sp,
		Name:       fmt.Sprintf("recv-as%d", as),
	})
	sp.sess.Start()
	select {
	case <-sp.established:
	case <-time.After(5 * time.Second):
		sp.sess.Stop()
		t.Fatalf("receiver as%d: timeout waiting for session", as)
	}
	return sp
}

// adjFingerprint renders one peer's Adj-RIB-Out the same way
// recvSpeaker.fingerprint renders the received table, so the router's
// view and the wire-decoded view are directly comparable.
func adjFingerprint(r *Router, id string) string {
	var b strings.Builder
	for _, rt := range r.DumpAdjOut(netaddr.MustParseAddr(id)) {
		fmt.Fprintf(&b, "%s %x\n", rt.Prefix, string(wire.MarshalAttrs(*rt.Attrs)))
	}
	return b.String()
}

// groupTestTable builds the deterministic churn workload.
func groupTestTable(n int) []Route {
	return UniformPath(
		GenerateTable(TableGenConfig{N: n, Seed: 11, FirstAS: 65001}),
		wire.NewASPath(65001, 100, 101),
	)
}

// runJoinMidStream drives the catch-up replay scenario: two receivers
// watch the first half of a table, a third joins mid-stream (its view
// is rebuilt from the group table), then the second half lands. All
// three must converge to identical tables.
func runJoinMidStream(t *testing.T, grouped bool) (recvFP, adjFP string) {
	t.Helper()
	cfg := testRouterConfig(
		NeighborConfig{AS: 65001},
		NeighborConfig{AS: 65100, Export: medPolicy(0)},
		NeighborConfig{AS: 65101, Export: medPolicy(0)},
		NeighborConfig{AS: 65102, Export: medPolicy(0)},
	)
	cfg.UpdateGroups = grouped
	cfg.Shards = 4
	r := mustStartRouter(t, cfg)
	defer r.Stop()

	feeder := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer feeder.stop()
	a := dialRecv(t, r, 65100, "10.9.0.1", 0)
	defer a.stop()
	b := dialRecv(t, r, 65101, "10.9.0.2", 0)
	defer b.stop()

	table := groupTestTable(300)
	half := len(table) / 2
	feeder.announce(t, table[:half], 40)
	waitFor(t, 10*time.Second, func() bool { return r.RIBLen() == half })

	// c joins mid-stream: catch-up replay of the first half, then live
	// emission of the second.
	c := dialRecv(t, r, 65102, "10.9.0.3", 0)
	defer c.stop()
	feeder.announce(t, table[half:], 40)

	n := len(table)
	waitFor(t, 10*time.Second, func() bool {
		return r.RIBLen() == n && a.len() == n && b.len() == n && c.len() == n
	})
	fps := []string{a.fingerprint(), b.fingerprint(), c.fingerprint()}
	if fps[0] != fps[1] || fps[0] != fps[2] {
		t.Fatalf("grouped=%v: receivers in one policy group decoded different tables", grouped)
	}
	if got := adjFingerprint(r, "10.9.0.3"); got != fps[2] {
		t.Fatalf("grouped=%v: late joiner's received table differs from its Adj-RIB-Out view", grouped)
	}
	return fps[0], adjFingerprint(r, "10.9.0.1")
}

// TestGroupJoinMidStream proves the grouped catch-up replay equivalent
// to ungrouped emission: a peer joining mid-table-transfer converges to
// the same per-peer table either way, byte for byte.
func TestGroupJoinMidStream(t *testing.T) {
	plainRecv, plainAdj := runJoinMidStream(t, false)
	groupRecv, groupAdj := runJoinMidStream(t, true)
	if plainRecv != groupRecv {
		t.Errorf("received tables differ between grouped and ungrouped emission")
	}
	if plainAdj != groupAdj {
		t.Errorf("Adj-RIB-Out views differ between grouped and ungrouped emission")
	}
}

// TestGroupSecondMemberSeesSoleMembersRoutes pins the rule that keeps a
// group of one as cheap as a table of its own — nothing its only member
// originated is stored — together with the promotion that rule needs:
// when a second member joins, what the first originated becomes visible
// and must reach the joiner exactly once, and when the group is back to
// one member nothing may leak to it.
func TestGroupSecondMemberSeesSoleMembersRoutes(t *testing.T) {
	const k = 64
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("N=%d", shards), func(t *testing.T) {
			cfg := testRouterConfig(NeighborConfig{AS: 65001}, NeighborConfig{AS: 65002})
			cfg.UpdateGroups = true
			cfg.Shards = shards
			r := mustStartRouter(t, cfg)
			defer r.Stop()
			mID := netaddr.MustParseAddr("1.1.1.1")
			nID := netaddr.MustParseAddr("2.2.2.2")

			m := dialSpeaker(t, r, 65001, mID.String())
			defer m.stop()
			table := groupTestTable(k)
			m.announce(t, table, 8)
			waitFor(t, 10*time.Second, func() bool { return r.RIBLen() == k })
			if adv := r.DumpAdjOut(mID); len(adv) != 0 {
				t.Fatalf("the sole member is advertised %d of its own routes", len(adv))
			}
			stored, _ := ask(r, func(si int, s *shard) int { return s.owner[mID].group.shards[si].adjOut.Len() })
			for si, n := range stored {
				if n != 0 {
					t.Errorf("a table partition (answer %d) stores %d entries no member can see", si, n)
				}
			}

			// joined waits until n has seen want prefixes, then proves it is
			// sent no more: DumpAdjOut drains the group's catch-ups on
			// every shard, so a marker route announced after it is the
			// last thing in n's outbound queue.
			markers := 0
			joined := func(n *testSpeaker, want int) {
				t.Helper()
				waitFor(t, 10*time.Second, func() bool { return n.prefixesIn.Load() >= uint64(want) })
				r.DumpAdjOut(nID)
				m.announce(t, []Route{{
					Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(250, byte(markers), 0, 0), 24),
					Path:   wire.NewASPath(65001, 250),
				}}, 1)
				markers++
				waitFor(t, 10*time.Second, func() bool { return n.prefixesIn.Load() > uint64(want) })
				if got := n.prefixesIn.Load(); got != uint64(want)+1 {
					t.Fatalf("joiner was sent %d prefixes, want the first member's %d and the marker, each once", got, want)
				}
				if w := n.withdrawsIn.Load(); w != 0 {
					t.Fatalf("joiner was sent %d withdrawals", w)
				}
			}

			// N joins: everything M originated becomes visible.
			n := dialSpeaker(t, r, 65002, nID.String())
			joined(n, k)
			if gs := r.GroupStats(); gs.Groups != 1 {
				t.Fatalf("GroupStats.Groups = %d, want the two peers in 1 group", gs.Groups)
			}

			// N leaves: M is alone again. Its routes' entries may linger,
			// but a change to one of them is still nobody's business.
			n.stop()
			waitFor(t, 10*time.Second, func() bool { return len(r.PeerIDs()) == 1 })
			changed := make([]Route, 8)
			for i := range changed {
				changed[i] = Lengthen(table[i], 65001, 2, 7)
			}
			tx := r.Transactions()
			m.announce(t, changed, 4)
			waitFor(t, 10*time.Second, func() bool { return r.Transactions() >= tx+uint64(len(changed)) })

			// N rejoins: the lingering entries by replay, the changed ones
			// by the promotion rebuild, each once.
			n = dialSpeaker(t, r, 65002, nID.String())
			defer n.stop()
			joined(n, k+1)

			if got := m.prefixesIn.Load() + m.withdrawsIn.Load(); got != 0 {
				t.Errorf("the originator was sent %d route events about its own routes", got)
			}
		})
	}
}

// runResetMidEmission kills one receiver's session while the emission
// stream is in flight, reconnects it, and requires full convergence:
// the rebuilt session must receive the whole group view again.
func runResetMidEmission(t *testing.T, grouped bool) (recvFP string) {
	t.Helper()
	cfg := testRouterConfig(
		NeighborConfig{AS: 65001},
		NeighborConfig{AS: 65100, Export: medPolicy(0)},
		NeighborConfig{AS: 65101, Export: medPolicy(0)},
	)
	cfg.UpdateGroups = grouped
	cfg.Shards = 4
	r := mustStartRouter(t, cfg)
	defer r.Stop()

	feeder := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer feeder.stop()
	a := dialRecv(t, r, 65100, "10.9.0.1", 0)
	defer a.stop()
	b := dialRecv(t, r, 65101, "10.9.0.2", 0)

	table := groupTestTable(300)
	half := len(table) / 2
	feeder.announce(t, table[:half], 40)
	// No settling: tear b down while the first half is still emitting,
	// then keep announcing into the gap.
	b.stop()
	feeder.announce(t, table[half:], 40)

	b2 := dialRecv(t, r, 65101, "10.9.0.2", 0)
	defer b2.stop()

	n := len(table)
	waitFor(t, 10*time.Second, func() bool {
		return r.RIBLen() == n && a.len() == n && b2.len() == n
	})
	if a.fingerprint() != b2.fingerprint() {
		t.Fatalf("grouped=%v: reconnected receiver decoded a different table than its groupmate", grouped)
	}
	return a.fingerprint()
}

// TestGroupSessionResetMidEmission proves grouped emission handles a
// session reset mid-run equivalently to the per-peer path.
func TestGroupSessionResetMidEmission(t *testing.T) {
	plain := runResetMidEmission(t, false)
	groupedFP := runResetMidEmission(t, true)
	if plain != groupedFP {
		t.Errorf("received tables differ between grouped and ungrouped emission after a reset")
	}
}

// runPolicyMove reconfigures one receiver's export policy and bounces
// its session: the peer must leave its old update group and join the
// other one, after which its stream matches its new groupmates'.
func runPolicyMove(t *testing.T, grouped bool) (recvFP string) {
	t.Helper()
	cfg := testRouterConfig(
		NeighborConfig{AS: 65001},
		NeighborConfig{AS: 65100, Export: medPolicy(0)},
		NeighborConfig{AS: 65101, Export: medPolicy(1)},
		NeighborConfig{AS: 65102, Export: medPolicy(0)},
	)
	cfg.UpdateGroups = grouped
	cfg.Shards = 4
	r := mustStartRouter(t, cfg)
	defer r.Stop()

	feeder := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer feeder.stop()
	a := dialRecv(t, r, 65100, "10.9.0.1", 0)
	defer a.stop()
	b := dialRecv(t, r, 65101, "10.9.0.2", 0)
	defer b.stop()
	c := dialRecv(t, r, 65102, "10.9.0.3", 0)

	table := groupTestTable(300)
	n := len(table)
	feeder.announce(t, table, 40)
	waitFor(t, 10*time.Second, func() bool {
		return r.RIBLen() == n && a.len() == n && b.len() == n && c.len() == n
	})
	if c.fingerprint() != a.fingerprint() {
		t.Fatalf("grouped=%v: groupmates a and c disagree before the move", grouped)
	}
	if c.fingerprint() == b.fingerprint() {
		t.Fatalf("grouped=%v: different policy groups produced identical streams", grouped)
	}

	// Move c from policy group 0 to group 1. Neighbor reconfiguration
	// applies at session establishment, so bounce the session.
	r.UpdateNeighbor(NeighborConfig{AS: 65102, Export: medPolicy(1)})
	c.stop()
	c2 := dialRecv(t, r, 65102, "10.9.0.3", 0)
	defer c2.stop()
	waitFor(t, 10*time.Second, func() bool { return c2.len() == n })

	if c2.fingerprint() != b.fingerprint() {
		t.Fatalf("grouped=%v: moved peer's stream does not match its new group", grouped)
	}
	if c2.fingerprint() == a.fingerprint() {
		t.Fatalf("grouped=%v: moved peer still carries its old group's stream", grouped)
	}
	// Groups counts the groups somebody is registered in: one per peer,
	// or (grouped) the feeder's and the two policies'.
	wantGroups := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for r.GroupStats().Groups != n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if gs := r.GroupStats(); gs.Groups != n {
			t.Errorf("grouped=%v: GroupStats.Groups = %d, want %d", grouped, gs.Groups, n)
		}
	}
	if grouped {
		wantGroups(3)
	} else {
		wantGroups(4)
	}

	// Re-key a, the last peer under policy 0. Once its old registration is
	// torn down nobody is registered under the old key, and that group
	// must be gone rather than walked on every batch from now on.
	r.UpdateNeighbor(NeighborConfig{AS: 65100, Export: medPolicy(1)})
	a.stop()
	a2 := dialRecv(t, r, 65100, "10.9.0.1", 0)
	defer a2.stop()
	waitFor(t, 10*time.Second, func() bool { return a2.len() == n })
	if a2.fingerprint() != b.fingerprint() {
		t.Fatalf("grouped=%v: re-keyed peer's stream does not match its new group", grouped)
	}
	if grouped {
		wantGroups(2)
	} else {
		wantGroups(4)
	}
	return c2.fingerprint()
}

// TestGroupPolicyKeyChange proves a policy-key change moving a peer
// between update groups is equivalent to the ungrouped path.
func TestGroupPolicyKeyChange(t *testing.T) {
	plain := runPolicyMove(t, false)
	groupedFP := runPolicyMove(t, true)
	if plain != groupedFP {
		t.Errorf("received tables differ between grouped and ungrouped emission after a policy move")
	}
}

// TestGroupStressChurnAliasing is the shared-buffer aliasing hunt, run
// under the race detector by the CI race gate: 64 grouped receivers
// draining a churn stream at eight different rates while the writer
// announces and withdraws flat out. Each shared run's bytes are queued
// to all members of a group; bytes rewritten while any session still
// holds them would corrupt framing (killing that session) or attribute
// bytes (diverging the decoded fingerprints below).
func TestGroupStressChurnAliasing(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const peers = 64
	const groups = 4
	neighbors := []NeighborConfig{{AS: 65001}}
	for i := 0; i < peers; i++ {
		neighbors = append(neighbors, NeighborConfig{
			AS:     uint32(65100 + i),
			Export: medPolicy(i % groups),
		})
	}
	cfg := testRouterConfig(neighbors...)
	cfg.UpdateGroups = true
	cfg.Shards = 4
	r := mustStartRouter(t, cfg)
	defer r.Stop()

	feeder := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer feeder.stop()
	recvs := make([]*recvSpeaker, peers)
	for i := range recvs {
		// Eight distinct drain rates: every shared payload is still
		// referenced by slow readers while fast ones have moved on.
		delay := time.Duration(i%8) * 100 * time.Microsecond
		recvs[i] = dialRecv(t, r, uint32(65100+i), fmt.Sprintf("10.9.%d.%d", i/200, i%200+1), delay)
		recvs[i].mu.Lock()
		recvs[i].keepLog = true
		recvs[i].mu.Unlock()
		defer recvs[i].stop()
	}

	table := groupTestTable(150)
	n := len(table)
	for round := 0; round < 3; round++ {
		feeder.announce(t, table, 30)
		feeder.withdraw(t, table[:n/2], 30)
	}
	feeder.announce(t, table, 30)

	// Quiescence sentinels (see sentinelRoutes): the count check below
	// samples receivers at different instants, so a lagging reader's
	// transient round-k full table — byte-identical to the converged
	// state under this uniform churn — can satisfy it while its final
	// withdraw/re-announce tail is still in flight.
	markers := sentinelRoutes(table, cfg.Shards)
	feeder.announce(t, markers, 30)
	total := n + len(markers)

	waitFor(t, 30*time.Second, func() bool {
		if r.RIBLen() != total {
			return false
		}
		for _, rc := range recvs {
			if rc.len() != total {
				return false
			}
		}
		return true
	})

	// Convergence content check: receivers agree within a group, the
	// router's Adj-RIB-Out view matches the decoded wire view, and the
	// grouped path actually fanned out.
	want := make([]string, groups)
	for g := range want {
		want[g] = recvs[g].fingerprint()
	}
	for i, rc := range recvs {
		if got := rc.fingerprint(); got != want[i%groups] {
			t.Fatalf("receiver %d decoded a different table than its group:\n%s",
				i, churnTrace(rc, recvs[i%groups], want[i%groups]))
		}
	}
	if got := adjFingerprint(r, "10.9.0.1"); got != want[0] {
		t.Fatalf("router Adj-RIB-Out view differs from the decoded wire view")
	}
	gs := r.GroupStats()
	if gs.Groups != groups+1 {
		t.Errorf("GroupStats.Groups = %d, want %d (receiver groups + feeder)", gs.Groups, groups+1)
	}
	if gs.FanoutRatio() < 2 {
		t.Errorf("FanoutRatio = %.2f, want >= 2 (runs should fan out to %d members)", gs.FanoutRatio(), peers/groups)
	}
}

// TestSharedRunBytesAreNotReused pins the shared sink's contract: the
// bytes of a shared run are queued, as one slice, to every clean member,
// and nothing writes them again — a later run is marshaled into bytes
// of its own, not into a buffer the shard reuses, which would rewrite
// what the slower members have not sent yet.
func TestSharedRunBytesAreNotReused(t *testing.T) {
	r, err := NewRouter(Config{
		AS:           65000,
		ID:           netaddr.MustParseAddr("10.255.0.1"),
		Shards:       1,
		UpdateGroups: true,
		Neighbors:    []NeighborConfig{{AS: 65001}, {AS: 65101}, {AS: 65102}},
	})
	if err != nil {
		t.Fatal(err)
	}
	feederID := netaddr.MustParseAddr("1.1.1.1")
	feeder := benchPeer(r, feederID, 65001, nil)
	members := []*peerState{
		benchPeer(r, netaddr.AddrFrom4(10, 9, 0, 1), 65101, nil),
		benchPeer(r, netaddr.AddrFrom4(10, 9, 0, 2), 65102, nil),
	}

	// Two batches of equal shape — same prefix count, paths of equal
	// length — so their runs marshal to the same size, but with
	// different attributes and prefixes, so their bytes differ.
	batch := func(second byte) []Route {
		rts := make([]Route, 8)
		for i := range rts {
			rts[i] = Route{
				Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(10, second, byte(i), 0), 24),
				Path:   wire.NewASPath(65001, uint32(second)),
			}
		}
		return rts
	}
	// queued takes what the feeder's batch queued to each member; every
	// item must be shared bytes.
	queued := func() [][]byte {
		var out [][]byte
		for i, ps := range members {
			items := take(ps)
			var shared []byte
			if len(items) == 1 {
				shared, _ = items[0].([]byte)
			}
			if shared == nil {
				t.Fatalf("member %d: queued %d items (%+v), want one shared run", i, len(items), items)
			}
			out = append(out, shared)
		}
		return out
	}
	// nlri decodes one queued run and returns its announced prefixes.
	nlri := func(b []byte) []string {
		m, err := wire.Parse(b)
		if err != nil {
			t.Fatalf("queued run does not decode: %v", err)
		}
		var out []string
		for _, p := range m.(wire.Update).NLRI {
			out = append(out, p.String())
		}
		sort.Strings(out)
		return out
	}
	want := func(rts []Route) []string {
		var out []string
		for _, rt := range rts {
			out = append(out, rt.Prefix.String())
		}
		sort.Strings(out)
		return out
	}

	first := batch(1)
	r.processUpdateBatch(0, feeder, Updates(first, feederID, len(first)))
	runs := queued()
	if &runs[0][0] != &runs[1][0] {
		t.Fatal("the members were queued separate copies of one shared run")
	}
	before := slices.Clone(runs[0])

	second := batch(2)
	r.processUpdateBatch(0, feeder, Updates(second, feederID, len(second)))
	later := queued()

	if !bytes.Equal(runs[0], before) {
		t.Fatal("a later run rewrote the bytes already queued for the first")
	}
	if bytes.Equal(runs[0], later[0]) {
		t.Fatal("the two batches marshaled to equal bytes; the test proves nothing")
	}
	if got, w := nlri(runs[0]), want(first); !slices.Equal(got, w) {
		t.Errorf("first run carries %v, want %v", got, w)
	}
	if got, w := nlri(later[0]), want(second); !slices.Equal(got, w) {
		t.Errorf("second run carries %v, want %v", got, w)
	}
}

// drainOut empties every receiver's recorder, as a live session's
// writes would its queue.
func drainOut(peers []*peerState) {
	for _, ps := range peers {
		take(ps)
	}
}

// BenchmarkEmitGrouped measures the decision+emission core: one feeder's
// churn stream processed synchronously on shard 0 and emitted to 64
// receivers in 4 policy groups — keyed by policy (compute/marshal once
// per group, fan bytes out through the shared-payload sink) against one
// group per peer doing the same work 16 times per policy — and to a
// single receiver, the group of one every run of which ends in the
// single-recipient sink.
func BenchmarkEmitGrouped(b *testing.B) {
	feederID := netaddr.MustParseAddr("1.1.1.1")
	for _, c := range []struct {
		peers, groups int
		grouped       bool
	}{{64, 4, false}, {64, 4, true}, {1, 1, true}} {
		peers, groups, grouped := c.peers, c.groups, c.grouped
		b.Run(fmt.Sprintf("peers=%d/grouped=%v", peers, grouped), func(b *testing.B) {
			neighbors := []NeighborConfig{{AS: 65001}}
			for i := 0; i < peers; i++ {
				neighbors = append(neighbors, NeighborConfig{
					AS:     uint32(65100 + i),
					Export: medPolicy(i % groups),
				})
			}
			r, err := NewRouter(Config{
				AS:           65000,
				ID:           netaddr.MustParseAddr("10.255.0.1"),
				Shards:       1,
				UpdateGroups: grouped,
				Neighbors:    neighbors,
			})
			if err != nil {
				b.Fatal(err)
			}
			feeder := benchPeer(r, feederID, 65001, nil)
			receivers := make([]*peerState, peers)
			for i := range receivers {
				id := netaddr.AddrFrom4(10, 9, byte(i/200), byte(i%200+1))
				receivers[i] = benchPeer(r, id, uint32(65100+i), medPolicy(i%groups))
			}

			// Two alternating attribute variants of the same prefixes, so
			// every processed update changes the best path and emits.
			tableA := groupTestTable(2048)
			tableB := make([]Route, len(tableA))
			for i, rt := range tableA {
				tableB[i] = Lengthen(rt, 65001, 2, 7)
			}
			rings := [2][]wire.Update{
				Updates(tableA, feederID, 1),
				Updates(tableB, feederID, 1),
			}

			b.ReportAllocs()
			b.ResetTimer()
			ring, off := 0, 0
			for done := 0; done < b.N; {
				upds := rings[ring]
				hi := off + 256
				if hi > len(upds) {
					hi = len(upds)
				}
				if hi-off > b.N-done {
					hi = off + b.N - done
				}
				r.processUpdateBatch(0, feeder, upds[off:hi])
				drainOut(receivers)
				done += hi - off
				off = hi
				if off == len(upds) {
					off = 0
					ring = 1 - ring
				}
			}
		})
	}
}
