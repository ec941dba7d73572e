package core

import (
	"testing"
	"time"

	"bgpbench/internal/netaddr"
)

// TestBatchDispatchCounters: the dispatch counters must account for
// every UPDATE the router received, and the per-shard batch counters
// must be populated.
func TestBatchDispatchCounters(t *testing.T) {
	r := mustStartRouter(t, Config{
		AS:         65000,
		ID:         netaddr.MustParseAddr("10.255.0.1"),
		ListenAddr: "127.0.0.1:0",
		Shards:     2,
		Neighbors:  []NeighborConfig{{AS: 65001}},
	})
	defer r.Stop()
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()

	table := GenerateTable(TableGenConfig{N: 800, Seed: 5, FirstAS: 65001})
	sp.announce(t, table, 1) // one prefix per message: the worst dispatch case
	waitFor(t, 20*time.Second, func() bool { return r.Transactions() >= uint64(len(table)) })

	batches, updates := r.DispatchStats()
	if updates != uint64(len(table)) {
		t.Fatalf("dispatch updates = %d, want %d", updates, len(table))
	}
	if batches == 0 || batches > updates {
		t.Fatalf("dispatch batches = %d (updates %d)", batches, updates)
	}
	var shardBatches uint64
	for _, st := range r.ShardStats() {
		shardBatches += st.Batches
	}
	if shardBatches == 0 {
		t.Fatal("no per-shard batches recorded")
	}
}
