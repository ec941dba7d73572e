package core

import (
	"testing"
	"time"

	"bgpbench/internal/fib"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// runShardedWorkload drives one router through a deterministic two-speaker
// stream — full table from speaker 1, competing variants from speaker 2,
// then a partial withdrawal — and returns the settled Loc-RIB and FIB.
func runShardedWorkload(t *testing.T, shards int) ([]LocRoute, map[netaddr.Prefix]fib.Entry) {
	t.Helper()
	r := mustStartRouter(t, Config{
		AS:         65000,
		ID:         netaddr.MustParseAddr("10.255.0.1"),
		ListenAddr: "127.0.0.1:0",
		Shards:     shards,
		Neighbors: []NeighborConfig{
			{AS: 65001},
			{AS: 65002},
		},
	})
	defer r.Stop()
	sp1 := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp1.stop()
	sp2 := dialSpeaker(t, r, 65002, "2.2.2.2")
	defer sp2.stop()

	table := GenerateTable(TableGenConfig{N: 1500, Seed: 9, FirstAS: 65001})
	n := uint64(len(table))

	// Speaker 2 competes: shorter paths for the first half (these win),
	// longer for the second half (these lose).
	variant := make([]Route, len(table))
	for i, rt := range table {
		if i < len(table)/2 {
			variant[i] = Shorten(rt, 65002)
		} else {
			variant[i] = Lengthen(rt, 65002, 2, 9)
		}
	}
	withdrawn := table[:len(table)/4]

	sp1.announce(t, table, 50)
	sp2.announce(t, variant, 50)
	sp1.withdraw(t, withdrawn, 50)

	target := 2*n + uint64(len(withdrawn))
	waitFor(t, 30*time.Second, func() bool { return r.Transactions() >= target })

	// DumpLocRIB is a per-shard barrier: everything queued ahead of it,
	// including the FIB batch commits, has been processed when it returns.
	loc := r.DumpLocRIB()
	fibDump := make(map[netaddr.Prefix]fib.Entry)
	r.FIB().Walk(func(p netaddr.Prefix, e fib.Entry) bool {
		fibDump[p] = e
		return true
	})
	return loc, fibDump
}

// TestShardedEquivalence: the sharded router (N=4) must converge to exactly
// the same Loc-RIB and forwarding table as the single-worker pipeline (N=1)
// on the same deterministic update stream.
func TestShardedEquivalence(t *testing.T) {
	locSingle, fibSingle := runShardedWorkload(t, 1)
	locSharded, fibSharded := runShardedWorkload(t, 4)
	assertSameState(t, locSingle, fibSingle, locSharded, fibSharded)
}

// assertSameState fails unless two settled (Loc-RIB, FIB) snapshots are
// identical row for row.
func assertSameState(t *testing.T, locWant []LocRoute, fibWant map[netaddr.Prefix]fib.Entry, locGot []LocRoute, fibGot map[netaddr.Prefix]fib.Entry) {
	t.Helper()
	if len(locWant) != len(locGot) {
		t.Fatalf("Loc-RIB sizes differ: want=%d got=%d", len(locWant), len(locGot))
	}
	for i := range locWant {
		a, b := locWant[i], locGot[i]
		if a.Prefix != b.Prefix || a.Peer != b.Peer {
			t.Fatalf("row %d: %v via %v != %v via %v", i, a.Prefix, a.Peer, b.Prefix, b.Peer)
		}
		if !a.Attrs.Equal(*b.Attrs) {
			t.Fatalf("row %d (%v): attrs differ", i, a.Prefix)
		}
	}
	if len(fibWant) != len(fibGot) {
		t.Fatalf("FIB sizes differ: want=%d got=%d", len(fibWant), len(fibGot))
	}
	for p, want := range fibWant {
		if got, ok := fibGot[p]; !ok || got != want {
			t.Fatalf("FIB %v = %v/%v, want %v", p, got, ok, want)
		}
	}
}

// TestShardStatsAndIntern: with multiple shards the per-shard transaction
// counters must sum to the router total, and the attribute intern table
// must dedupe the uniform-path workload to a handful of entries.
func TestShardStatsAndIntern(t *testing.T) {
	r := mustStartRouter(t, Config{
		AS:         65000,
		ID:         netaddr.MustParseAddr("10.255.0.1"),
		ListenAddr: "127.0.0.1:0",
		Shards:     4,
		Neighbors:  []NeighborConfig{{AS: 65001}},
	})
	defer r.Stop()
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()

	table := UniformPath(
		GenerateTable(TableGenConfig{N: 1000, Seed: 3, FirstAS: 65001}),
		wire.NewASPath(65001, 100, 101, 102),
	)
	sp.announce(t, table, 100)
	waitFor(t, 20*time.Second, func() bool { return r.Transactions() >= uint64(len(table)) })

	if r.Shards() != 4 {
		t.Fatalf("Shards = %d", r.Shards())
	}
	stats := r.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats rows = %d", len(stats))
	}
	var sum, busy uint64
	for _, s := range stats {
		sum += s.Transactions
		if s.Transactions > 0 {
			busy++
		}
	}
	if sum != r.Transactions() {
		t.Fatalf("per-shard transactions sum %d != total %d", sum, r.Transactions())
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 shards saw work; sharding not spreading", busy)
	}
	is := r.InternStats()
	// One uniform attribute block for 1000 prefixes: the table must stay
	// tiny and almost every lookup must hit.
	if is.Size == 0 || is.Size > 4 {
		t.Fatalf("intern size = %d, want 1..4", is.Size)
	}
	if is.HitRate() < 0.9 {
		t.Fatalf("intern hit rate = %v, want >= 0.9", is.HitRate())
	}
	batches, ops := r.FIBBatchStats()
	if batches == 0 || ops < uint64(len(table)) {
		t.Fatalf("FIB batch stats = %d batches, %d ops", batches, ops)
	}
	if ops/batches < 2 {
		t.Fatalf("mean FIB batch size %d; batching not effective", ops/batches)
	}
	if r.RIBLen() != len(table) {
		t.Fatalf("RIBLen = %d, want %d", r.RIBLen(), len(table))
	}
}

// TestDuplicateNeighborASRejected: configuration validation must reject two
// neighbours with the same AS, since sessions are matched to their
// configuration by AS.
func TestDuplicateNeighborASRejected(t *testing.T) {
	_, err := NewRouter(Config{
		AS: 65000,
		ID: netaddr.MustParseAddr("10.255.0.1"),
		Neighbors: []NeighborConfig{
			{AS: 65001},
			{AS: 65001, MaxPrefixes: 10},
		},
	})
	if err == nil {
		t.Fatal("duplicate neighbor AS accepted")
	}
}

// TestShardOfPartitionStable: the prefix hash must be deterministic and
// in-range for every shard count the router can run with.
func TestShardOfPartitionStable(t *testing.T) {
	table := GenerateTable(TableGenConfig{N: 500, Seed: 1})
	for _, n := range []int{1, 2, 4, 8} {
		counts := make([]int, n)
		for _, rt := range table {
			si := rib.ShardOf(rt.Prefix, n)
			if si < 0 || si >= n {
				t.Fatalf("shard %d out of range for n=%d", si, n)
			}
			counts[si]++
		}
		if n > 1 {
			for i, c := range counts {
				if c == 0 {
					t.Fatalf("n=%d: shard %d got no prefixes", n, i)
				}
			}
		}
	}
}
