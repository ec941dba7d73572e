package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// runMemberlessRebuild drives the member-less-group rebuild branch: a
// group's only member leaves, the Loc-RIB keeps churning while the
// group has nobody to emit to (its table goes stale), then a member
// joins. The join must discard the stale group state and rebuild the
// view from the live Loc-RIB via the chunked catch-up path — replaying
// the stale Adj-RIB-Out would resurrect withdrawn prefixes.
func runMemberlessRebuild(t *testing.T, grouped bool) string {
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

	table := groupTestTable(300)
	half := len(table) / 2
	feeder.announce(t, table[:half], 40)
	waitFor(t, 10*time.Second, func() bool { return r.RIBLen() == half && a.len() == half })

	// The group's only member leaves; wait for the session to tear down
	// so the group is member-less before the table moves on.
	a.stop()
	waitFor(t, 10*time.Second, func() bool { return len(r.PeerIDs()) == 1 })
	feeder.withdraw(t, table[:half/2], 40)
	feeder.announce(t, table[half:], 40)
	n := len(table) - half/2
	waitFor(t, 10*time.Second, func() bool { return r.RIBLen() == n })

	// First member joins the member-less group: its stream must be the
	// current Loc-RIB — none of the half/2 withdrawn prefixes, all of
	// the second half announced while the group was empty.
	b := dialRecv(t, r, 65101, "10.9.0.2", 0)
	defer b.stop()
	waitFor(t, 10*time.Second, func() bool { return b.len() == n })

	fp := b.fingerprint()
	if got := adjFingerprint(r, "10.9.0.2"); got != fp {
		t.Fatalf("grouped=%v: rebuilt member's received table differs from its Adj-RIB-Out view", grouped)
	}
	if grouped {
		gs := r.GroupStats()
		if gs.Rebuilds == 0 {
			t.Errorf("GroupStats.Rebuilds = 0, want > 0 (member-less join must schedule a rebuild)")
		}
		if gs.RebuildChunks == 0 {
			t.Errorf("GroupStats.RebuildChunks = 0, want > 0")
		}
		if h := r.RebuildLatency(); h.Count == 0 {
			t.Errorf("RebuildLatency().Count = 0, want > 0")
		}
	}
	return fp
}

// TestGroupMemberlessRebuild proves the member-less-group rebuild branch
// equivalent to the ungrouped path: a peer joining a group whose table
// went stale while empty converges to the same per-peer table either
// way, byte for byte.
func TestGroupMemberlessRebuild(t *testing.T) {
	plain := runMemberlessRebuild(t, false)
	groupedFP := runMemberlessRebuild(t, true)
	if plain != groupedFP {
		t.Errorf("received tables differ between grouped and ungrouped emission after a member-less rebuild")
	}
}

// sliverPolicy differentiates groups only on a /6 sliver of the v4
// space (MED 3000+g inside the sliver, everything else permitted
// unchanged), so distinct update groups export byte-identical attribute
// blocks for most routes and their runs line up: each group still
// marshals its own copy of the same bytes, and members of different
// groups receive equal bytes that share nothing. Compare medPolicy,
// which differentiates every route.
func sliverPolicy(g int) *policy.RouteMap {
	med := uint32(3000 + g)
	return &policy.RouteMap{
		Name: fmt.Sprintf("sliver-group-%d", g),
		Terms: []policy.Term{{
			Name: "sliver-med",
			Match: policy.Match{PrefixList: &policy.PrefixList{
				Name: fmt.Sprintf("sliver-%d", g),
				Rules: []policy.PrefixRule{{
					Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(byte(64*g), 0, 0, 0), 6),
					GE:     6,
					Action: policy.Permit,
				}},
			}},
			Set:    policy.Set{MED: &med},
			Action: policy.Permit,
		}},
		DefaultPermit: true,
	}
}

// TestGroupSharedPayloadChurn is the shared-bytes aliasing hunt, run
// under the race detector by the CI race gate: four sliver-policy
// groups fan each shared run's bytes out to their members while the
// writer churns the table and receivers bounce mid-stream, driving
// chunked member replays concurrently with live emission. Shared bytes
// written after they were queued — a reused marshal buffer — would
// corrupt framing or diverge the decoded fingerprints.
func TestGroupSharedPayloadChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const peers = 16
	const groups = 4
	neighbors := []NeighborConfig{{AS: 65001}}
	for i := 0; i < peers; i++ {
		neighbors = append(neighbors, NeighborConfig{
			AS:     uint32(65100 + i),
			Export: sliverPolicy(i % groups),
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
	dial := func(i int) *recvSpeaker {
		delay := time.Duration(i%4) * 100 * time.Microsecond
		rc := dialRecv(t, r, uint32(65100+i), fmt.Sprintf("10.9.0.%d", i+1), delay)
		rc.mu.Lock()
		rc.keepLog = true
		rc.mu.Unlock()
		return rc
	}
	for i := range recvs {
		recvs[i] = dial(i)
	}
	defer func() {
		for _, rc := range recvs {
			rc.stop()
		}
	}()

	table := groupTestTable(150)
	n := len(table)
	for round := 0; round < 3; round++ {
		feeder.announce(t, table, 30)
		// Bounce one receiver per group mid-stream: the rejoin replays
		// the group table while the churn stream fans out to the rest.
		for g := 0; g < groups; g++ {
			i := round*groups%peers + g
			recvs[i].stop()
			recvs[i] = dial(i)
		}
		feeder.withdraw(t, table[:n/2], 30)
	}
	feeder.announce(t, table, 30)

	// Quiescence sentinels (see sentinelRoutes): without them, a table
	// count or even a fingerprint match is transient — every round
	// re-announces identical attribute bytes, so a bounced receiver's
	// post-replay full table is byte-identical to the converged state
	// while its withdraw/re-announce tail is still in flight.
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

	// Receivers agree within a group and the router's Adj-RIB-Out view
	// matches the decoded wire view.
	want := make([]string, groups)
	for g := range want {
		want[g] = recvs[g].fingerprint()
	}
	for i, rc := range recvs {
		if rc.fingerprint() != want[i%groups] {
			t.Fatalf("receiver %d decoded a different table than its group:\n%s",
				i, churnTrace(rc, recvs[i%groups], want[i%groups]))
		}
	}
	if got := adjFingerprint(r, "10.9.0.1"); got != want[0] {
		t.Fatalf("router Adj-RIB-Out view differs from the decoded wire view")
	}
	if gs := r.GroupStats(); gs.Runs == 0 || gs.FanoutRatio() < 2 {
		t.Errorf("GroupStats Runs = %d, FanoutRatio = %.2f, want shared runs fanned out to >= 2 members",
			gs.Runs, gs.FanoutRatio())
	}
}

// BenchmarkGroupRebuild measures the chunked first-member rebuild: a
// populated Loc-RIB replayed into a freshly forgotten group table, the
// cost a peer joining a member-less group pays (spread over catch-up
// chunks interleaved with live work in production; drained back-to-back
// here). The 100k variant is the bench-smoke large-table gate.
func BenchmarkGroupRebuild(b *testing.B) {
	feederID := netaddr.MustParseAddr("1.1.1.1")
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("prefixes=%d", n), func(b *testing.B) {
			r, err := NewRouter(Config{
				AS:           65000,
				ID:           netaddr.MustParseAddr("10.255.0.1"),
				Shards:       1,
				UpdateGroups: true,
				Neighbors: []NeighborConfig{
					{AS: 65001},
					{AS: 65100, Export: medPolicy(0)},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			feeder := benchPeer(r, feederID, 65001, nil)
			table := groupTestTable(n)
			r.processUpdateBatch(0, feeder, Updates(table, feederID, 500))

			recv := benchPeer(r, netaddr.AddrFrom4(10, 9, 0, 1), 65100, medPolicy(0))
			s := r.shards[0]
			drain := func() {
				for len(s.catchups) > 0 {
					r.runCatchupChunk(0, s)
				}
				drainOut([]*peerState{recv})
			}
			drain() // the join's own rebuild, outside the timed region
			sh := &recv.group.shards[0]

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Forget the group table so the rebuild re-advertises and
				// re-emits the whole Loc-RIB, as a first-member join does.
				sh.adjOut = rib.NewAdjOut()
				sh.exportCache = make(map[exportKey]*wire.PathAttrs)
				r.scheduleCatchup(0, recv.group, nil)
				drain()
			}
		})
	}
}

// churnTrace explains a diverged receiver: for each fingerprint line
// present in want but absent from rc's table, dump the shard the prefix
// hashes to plus the full announce/withdraw event trail from rc's and
// the reference receiver's decoded message logs. The trails answer the
// question the fingerprint can't: was the final announce never sent,
// reordered behind a withdraw, or decoded with the wrong bytes?
// sentinelRoutes returns one marker route per shard, colliding with
// nothing in table. Announced after a churn stream's final announce,
// the markers provide deterministic quiescence: shard workers process
// the feeder's stream in order and the per-peer out queue is FIFO, so
// a receiver that has decoded every marker has decoded everything
// every shard emitted before them.
func sentinelRoutes(table []Route, shards int) []Route {
	inTable := make(map[netaddr.Prefix]bool, len(table))
	for _, rt := range table {
		inTable[rt.Prefix] = true
	}
	var markers []Route
	covered := map[int]bool{}
	for i := 0; len(markers) < shards; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFrom4(250, byte(i), 0, 0), 24)
		if s := rib.ShardOf(p, shards); !covered[s] && !inTable[p] {
			covered[s] = true
			markers = append(markers, Route{Prefix: p, Path: wire.NewASPath(65001, 250)})
		}
	}
	return markers
}

func churnTrace(rc, ref *recvSpeaker, want string) string {
	var b strings.Builder
	for _, line := range missingLines(rc, want) {
		p := netaddr.MustParsePrefix(strings.Fields(line)[0])
		fmt.Fprintf(&b, "missing %s shard=%d\n  got:%s\n  ref:%s\n",
			line, rib.ShardOf(p, 4), eventTrail(rc, p), eventTrail(ref, p))
	}
	return b.String()
}

func missingLines(rc *recvSpeaker, want string) []string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	got := map[string]bool{}
	for p, ab := range rc.table {
		got[fmt.Sprintf("%s %x", p, ab)] = true
	}
	var out []string
	for _, line := range strings.Split(strings.TrimRight(want, "\n"), "\n") {
		if line != "" && !got[line] {
			out = append(out, line)
		}
	}
	return out
}

func eventTrail(rc *recvSpeaker, p netaddr.Prefix) string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var b strings.Builder
	for i, u := range rc.logs {
		for _, w := range u.Withdrawn {
			if w == p {
				fmt.Fprintf(&b, " [%d]w", i)
			}
		}
		for _, nl := range u.NLRI {
			if nl == p {
				fmt.Fprintf(&b, " [%d]a", i)
			}
		}
	}
	fmt.Fprintf(&b, " (of %d msgs)", len(rc.logs))
	return b.String()
}
