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

// BenchmarkLocRIBFootprint reports the heap one Loc-RIB holds per prefix
// (B/prefix) for the repository benchmark's table shapes: 100k prefixes
// on one path (startup_small, transit_small), the same with a second,
// losing candidate per prefix (nochange_small), and 400k prefixes over a
// Zipf pool of DFZ paths (transit_large). The dfz400k_adjout case counts
// instead the Adj-RIB-Out column one update group adds beside that
// Loc-RIB, every prefix advertised. Routes and interned attributes (and
// for the column, the Loc-RIB) are built before the measurement, so only
// the table is counted. One iteration is a measurement: run with
// -benchtime=1x.
func BenchmarkLocRIBFootprint(b *testing.B) {
	injector := rib.PeerInfo{Addr: netaddr.AddrFromV4(1), ID: netaddr.AddrFromV4(1), AS: 65001, EBGP: true}
	loser := rib.PeerInfo{Addr: netaddr.AddrFromV4(2), ID: netaddr.AddrFromV4(2), AS: 65002, EBGP: true}
	for _, tc := range []struct {
		name   string
		n      int
		dfz    bool
		losers bool
		adjOut bool
	}{
		{"uniform100k", 100_000, false, false, false},
		{"uniform100k_2cands", 100_000, false, true, false},
		{"dfz400k", 400_000, true, false, false},
		{"dfz400k_adjout", 400_000, true, false, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.TableGenConfig{N: tc.n, Seed: 1, FirstAS: injector.AS}
			if tc.dfz {
				cfg.AttrGroups = tc.n / 50
			}
			routes := core.GenerateTable(cfg)
			if !tc.dfz {
				routes = core.UniformPath(routes, wire.NewASPath(injector.AS, 100, 101, 102))
			}
			intern := wire.NewIntern()
			attrs := make([]*wire.PathAttrs, len(routes))
			for i, rt := range routes {
				attrs[i] = intern.Intern(wire.NewPathAttrs(wire.OriginIGP, rt.Path, injector.Addr))
			}
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
