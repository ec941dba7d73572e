package rib_test

import (
	"runtime"
	"testing"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// heapBytes is the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// churn withdraws every route and announces it again, cycles times: the
// repository benchmark's closed loop, which a table that grows under
// deletes (a map reclaiming no tombstones) pays for in heap.
func churn(r *rib.RIB, peer netaddr.Addr, routes []core.Route, attrs []*wire.PathAttrs, cycles int) {
	for c := 0; c < cycles; c++ {
		for _, rt := range routes {
			r.Withdraw(peer, rt.Prefix)
		}
		for k, rt := range routes {
			r.Announce(peer, rt.Prefix, attrs[k])
		}
	}
}

// footprintTable builds n routes from one injector (a Zipf pool of DFZ
// paths when dfz, else one path) with their interned attributes.
func footprintTable(n int, dfz bool, injector rib.PeerInfo) ([]core.Route, []*wire.PathAttrs, *wire.Intern) {
	cfg := core.TableGenConfig{N: n, Seed: 1, FirstAS: injector.AS}
	if dfz {
		cfg.AttrGroups = n / 50
	}
	routes := core.GenerateTable(cfg)
	if !dfz {
		routes = core.UniformPath(routes, wire.NewASPath(injector.AS, 100, 101, 102))
	}
	intern := wire.NewIntern()
	attrs := make([]*wire.PathAttrs, len(routes))
	for i, rt := range routes {
		attrs[i] = intern.Intern(wire.NewPathAttrs(wire.OriginIGP, rt.Path, injector.Addr))
	}
	return routes, attrs, intern
}

// BenchmarkLocRIBFootprint reports the heap one Loc-RIB holds per prefix
// (B/prefix) for the repository benchmark's table shapes: 100k prefixes
// on one path (startup_small, transit_small), the same with a second,
// losing candidate per prefix (nochange_small), and 400k prefixes over a
// Zipf pool of DFZ paths (transit_large). A _churned case is measured
// after three withdraw-all/announce-all cycles, the benchmark's closed
// loop, instead of fresh. The dfz400k_adjout case counts instead the
// Adj-RIB-Out column one update group adds beside that Loc-RIB, every
// prefix advertised. Routes and interned attributes (and for the column,
// the Loc-RIB) are built before the measurement, so only the table is
// counted. One iteration is a measurement: run with -benchtime=1x.
func BenchmarkLocRIBFootprint(b *testing.B) {
	injector := rib.PeerInfo{Addr: netaddr.AddrFromV4(1), ID: netaddr.AddrFromV4(1), AS: 65001, EBGP: true}
	loser := rib.PeerInfo{Addr: netaddr.AddrFromV4(2), ID: netaddr.AddrFromV4(2), AS: 65002, EBGP: true}
	for _, tc := range []struct {
		name   string
		n      int
		dfz    bool
		losers bool
		adjOut bool
		churn  bool
	}{
		{"uniform100k", 100_000, false, false, false, false},
		{"uniform100k_churned", 100_000, false, false, false, true},
		{"uniform100k_2cands", 100_000, false, true, false, false},
		{"dfz400k", 400_000, true, false, false, false},
		{"dfz400k_churned", 400_000, true, false, false, true},
		{"dfz400k_adjout", 400_000, true, false, true, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			routes, attrs, intern := footprintTable(tc.n, tc.dfz, injector)
			longer := intern.Intern(wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(loser.AS, 200, 201, 100, 101, 102), loser.Addr))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := heapBytes()
				r := rib.New()
				r.AddPeer(injector)
				r.AddPeer(loser)
				var ids []uint32 // the column case's Loc-RIB ids, by route
				if tc.adjOut {
					ids = make([]uint32, 0, len(routes))
				}
				for k, rt := range routes {
					ch, _ := r.Announce(injector.Addr, rt.Prefix, attrs[k])
					if tc.adjOut {
						ids = append(ids, ch.ID)
					}
					if tc.losers {
						r.Announce(loser.Addr, rt.Prefix, longer)
					}
				}
				if tc.churn {
					churn(r, injector.Addr, routes, attrs, 3)
				}
				var col *rib.AdjOut
				if tc.adjOut {
					before = heapBytes()
					col = rib.NewAdjOut()
					for k, id := range ids {
						col.Advertise(id, attrs[k])
					}
				}
				after := heapBytes()
				runtime.KeepAlive(ids)
				if r.Len() != len(routes) || (col != nil && col.Len() != len(routes)) {
					b.Fatalf("Len = %d, want %d", r.Len(), len(routes))
				}
				b.ReportMetric(float64(after-before)/float64(len(routes)), "B/prefix")
			}
		})
	}
}

// TestLocRIBFootprintChurned: withdrawing and re-announcing a whole table
// must not grow the Loc-RIB. After three withdraw-all/announce-all
// cycles of 50k prefixes its heap stays within 10 % of the freshly built
// table's.
func TestLocRIBFootprintChurned(t *testing.T) {
	injector := rib.PeerInfo{Addr: netaddr.AddrFromV4(1), ID: netaddr.AddrFromV4(1), AS: 65001, EBGP: true}
	routes, attrs, _ := footprintTable(50_000, false, injector)
	before := heapBytes()
	r := rib.New()
	r.AddPeer(injector)
	for k, rt := range routes {
		r.Announce(injector.Addr, rt.Prefix, attrs[k])
	}
	fresh := heapBytes() - before
	churn(r, injector.Addr, routes, attrs, 3)
	churned := heapBytes() - before
	runtime.KeepAlive(r)
	runtime.KeepAlive(routes) // live across both measurements, so neither counts it
	runtime.KeepAlive(attrs)
	perPrefix := func(b uint64) float64 { return float64(b) / float64(len(routes)) }
	if float64(churned) > 1.1*float64(fresh) {
		t.Fatalf("Loc-RIB holds %.1f B/prefix after 3 churn cycles, %.1f fresh: more than 10 %% growth", perPrefix(churned), perPrefix(fresh))
	}
	t.Logf("Loc-RIB: %.1f B/prefix fresh, %.1f churned", perPrefix(fresh), perPrefix(churned))
}

// TestPrefixIndexShardResidue fills one RIB with the prefixes ShardOf
// sends to shard 0 of 2 and of 4, in both families, from DFZ-shaped
// tables. Those prefixes share a residue of the shard hash; an index
// hash correlated with it would crowd them into a fraction of the slots
// and lengthen probes far past what load 1/2 gives.
func TestPrefixIndexShardResidue(t *testing.T) {
	peer := rib.PeerInfo{Addr: netaddr.AddrFromV4(1), ID: netaddr.AddrFromV4(1), AS: 65001, EBGP: true}
	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(peer.AS), peer.Addr)
	for _, fam := range []netaddr.Family{netaddr.FamilyV4, netaddr.FamilyV6} {
		routes := core.GenerateTable(core.TableGenConfig{N: 60_000, Seed: 1, AttrGroups: 1200, Family: fam})
		for _, n := range []int{2, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				r := rib.NewSeeded(seed)
				r.AddPeer(peer)
				for _, rt := range routes {
					if rib.ShardOf(rt.Prefix, n) == 0 {
						r.Announce(peer.Addr, rt.Prefix, &attrs)
					}
				}
				if got := r.MaxProbe(); got > 32 {
					t.Errorf("%v, shard 0 of %d, seed %d: %d prefixes, longest probe %d slots, want <= 32", fam, n, seed, r.Len(), got)
				}
			}
		}
	}
}
