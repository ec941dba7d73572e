package core

import (
	"fmt"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// benchPeer registers an established peer on the router and brings it up
// on every shard synchronously, bypassing the TCP session machinery so
// benchmarks and model tests drive only the dispatch and decision paths.
// On an update-groups router the peer joins its export policy's group.
// Must run while the shard workers are idle.
func benchPeer(r *Router, id netaddr.Addr, as uint32, export *policy.RouteMap) *peerState {
	return benchPeerCfg(r, id, NeighborConfig{AS: as, Export: export})
}

// benchPeerCfg is benchPeer with the neighbor's whole configuration.
func benchPeerCfg(r *Router, id netaddr.Addr, ncfg NeighborConfig) *peerState {
	ps := r.register(rib.PeerInfo{Addr: id, ID: id, AS: ncfg.AS, EBGP: true},
		ncfg, [2]bool{true, true}, false, r.nextGen(), &recorder{})
	for i := 0; i < r.nshards; i++ {
		r.processPeerUp(i, ps)
	}
	return ps
}

// benchUpdates builds a ring of single-prefix UPDATEs sharing one
// attribute block — the paper's small-packet worst case for dispatch.
func benchUpdates(n int, srcID netaddr.Addr, as uint32) []wire.Update {
	table := UniformPath(
		GenerateTable(TableGenConfig{N: n, Seed: 42, FirstAS: as}),
		wire.NewASPath(as, 100, 101, 102),
	)
	return Updates(table, srcID, 1)
}

// waitTxB spins until the router has processed target transactions.
func waitTxB(b *testing.B, r *Router, target uint64) {
	b.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for r.Transactions() < target {
		if time.Now().After(deadline) {
			b.Fatalf("stalled at %d/%d transactions", r.Transactions(), target)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkDispatchUpdate measures the session→shard hot path end to
// end — batch dispatch plus shard-worker decision processing — for
// single-prefix UPDATEs across shard counts.
func BenchmarkDispatchUpdate(b *testing.B) {
	peerID := netaddr.MustParseAddr("1.1.1.1")
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r, err := NewRouter(Config{
				AS:        65000,
				ID:        netaddr.MustParseAddr("10.255.0.1"),
				Shards:    shards,
				Neighbors: []NeighborConfig{{AS: 65001}},
			})
			if err != nil {
				b.Fatal(err)
			}
			h := &routerHandler{r: r, ps: benchPeer(r, peerID, 65001, nil)}
			if err := r.Start(); err != nil {
				b.Fatal(err)
			}
			defer r.Stop()
			upds := benchUpdates(8192, peerID, 65001)
			base := r.Transactions()

			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; {
				lo := sent % len(upds)
				hi := lo + DefaultBatchMaxUpdates
				if hi > len(upds) {
					hi = len(upds)
				}
				if hi-lo > b.N-sent {
					hi = lo + b.N - sent
				}
				r.dispatchUpdateBatch(h, upds[lo:hi])
				sent += hi - lo
			}
			waitTxB(b, r, base+uint64(b.N))
		})
	}
}

// BenchmarkProcessUpdate measures the shard worker's decision-process
// core in isolation: processUpdateBatch called synchronously (no
// workers, no channels) over single-prefix sub-updates, and over the
// transit_large shape: 500-prefix UPDATEs of a DFZ-shaped table
// announced and withdrawn in turn through an import and an export route
// map to a receiver (one op is one UPDATE; ns/prefix is reported). The
// 20k-prefix table fits in cache; the 400k one is transit_large's size,
// where every table access is a cache miss.
func BenchmarkProcessUpdate(b *testing.B) {
	peerID := netaddr.MustParseAddr("1.1.1.1")
	for _, batch := range []int{1, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			r, err := NewRouter(Config{
				AS:        65000,
				ID:        netaddr.MustParseAddr("10.255.0.1"),
				Shards:    1,
				Neighbors: []NeighborConfig{{AS: 65001}},
			})
			if err != nil {
				b.Fatal(err)
			}
			ps := benchPeer(r, peerID, 65001, nil)
			upds := benchUpdates(8192, peerID, 65001)

			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				lo := done % len(upds)
				hi := lo + batch
				if hi > len(upds) {
					hi = len(upds)
				}
				if hi-lo > b.N-done {
					hi = lo + b.N - done
				}
				r.processUpdateBatch(0, ps, upds[lo:hi])
				done += hi - lo
			}
		})
	}
	for _, n := range []int{20_000, 400_000} {
		b.Run(fmt.Sprintf("policy=sliver/prefixes=500/table=%dk", n/1000), func(b *testing.B) {
			benchSliver(b, n)
		})
	}
}

// benchSliver is BenchmarkProcessUpdate's transit_large-shaped case over
// an n-prefix table.
func benchSliver(b *testing.B, n int) {
	r, injector, receiver := sliverRouter(b)
	table := GenerateTable(TableGenConfig{N: n, Seed: 5, FirstAS: sliverInjectorAS, AttrGroups: n / 50})
	cycle := append(Updates(table, injector.info.Addr, 500), Withdrawals(table, 500)...)
	for i := range cycle { // warm-up: intern every path once
		r.processUpdateBatch(0, injector, cycle[i:i+1])
		drainOut([]*peerState{receiver})
	}

	b.ReportAllocs()
	b.ResetTimer()
	prefixes := 0
	for i := 0; i < b.N; i++ {
		u := cycle[i%len(cycle) : i%len(cycle)+1]
		r.processUpdateBatch(0, injector, u)
		drainOut([]*peerState{receiver})
		prefixes += len(u[0].NLRI) + len(u[0].Withdrawn)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(prefixes), "ns/prefix")
}
