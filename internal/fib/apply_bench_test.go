package fib_test

import (
	"testing"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/fib"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/rib"
)

// BenchmarkPatriciaApply times the router's FIB commit stage on the
// startup_small shape: the 100k-prefix table in the injector's stream
// order with its one next hop, split over two Loc-RIB shards by
// rib.ShardOf, each shard committing 125-op batches (the shards' batches
// alternate on the one table), every prefix inserted and then every
// prefix deleted. One iteration is a full insert + delete cycle on a
// fresh trie; ns/fibop is the time per FIB op.
func BenchmarkPatriciaApply(b *testing.B) {
	const shards, batch = 2, 125
	routes := core.GenerateTable(core.TableGenConfig{N: 100_000, Seed: 1})
	e := fib.Entry{NextHop: netaddr.AddrFromV4(1), Port: 65001 % 16}
	var ins, del [shards][][]fib.Op
	for s := range shards {
		var ops, dels []fib.Op
		for _, rt := range routes {
			if rib.ShardOf(rt.Prefix, shards) == s {
				ops = append(ops, fib.Op{Prefix: rt.Prefix, Entry: e})
				dels = append(dels, fib.Op{Prefix: rt.Prefix, Delete: true})
			}
		}
		for k := 0; k < len(ops); k += batch {
			ins[s] = append(ins[s], ops[k:min(k+batch, len(ops))])
			del[s] = append(del[s], dels[k:min(k+batch, len(dels))])
		}
	}
	commit := func(t *fib.Patricia, batches [shards][][]fib.Op) {
		for k := 0; k < max(len(batches[0]), len(batches[1])); k++ {
			for s := range shards {
				if k < len(batches[s]) {
					t.Apply(batches[s][k])
				}
			}
		}
	}
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := fib.NewPatricia()
		start := time.Now()
		commit(t, ins)
		if t.Len() != len(routes) {
			b.Fatalf("Len = %d, want %d", t.Len(), len(routes))
		}
		commit(t, del)
		elapsed += time.Since(start)
		if t.Len() != 0 {
			b.Fatalf("Len after delete-all = %d", t.Len())
		}
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*2*len(routes)), "ns/fibop")
}
