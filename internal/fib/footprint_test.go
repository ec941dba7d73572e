package fib_test

import (
	"runtime"
	"testing"

	"bgpbench/internal/core"
	"bgpbench/internal/fib"
	"bgpbench/internal/netaddr"
)

// heapBytes is the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkPatriciaFootprint reports the heap the router's default FIB
// engine holds per prefix (B/prefix) for the repository benchmark's
// table shapes: 100k prefixes (startup_small, nochange_small,
// transit_small) and the 400k-prefix DFZ-shaped table (transit_large),
// installed through Apply in 500-op batches with the one next hop the
// injector gives them. The hopPerRoute case gives nearly every route its
// own entry, as the lookup benchmarks' corpus (bench.LookupWorkload) does,
// which is the worst case for the next-hop table. One iteration is a
// measurement: run with -benchtime=1x.
func BenchmarkPatriciaFootprint(b *testing.B) {
	for _, tc := range []struct {
		name        string
		cfg         core.TableGenConfig
		hopPerRoute bool
	}{
		{"uniform100k", core.TableGenConfig{N: 100_000, Seed: 1}, false},
		{"uniform100k_hopPerRoute", core.TableGenConfig{N: 100_000, Seed: 1}, true},
		{"dfz400k", core.TableGenConfig{N: 400_000, Seed: 1, AttrGroups: 400_000 / 50}, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			routes := core.GenerateTable(tc.cfg)
			ops := make([]fib.Op, len(routes))
			for i, rt := range routes {
				e := fib.Entry{NextHop: netaddr.AddrFromV4(1), Port: 65001 % 16}
				if tc.hopPerRoute {
					e = fib.Entry{NextHop: netaddr.AddrFromV4(uint32(i | 1)), Port: i % 16}
				}
				ops[i] = fib.Op{Prefix: rt.Prefix, Entry: e}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := heapBytes()
				t := fib.NewPatricia()
				for k := 0; k < len(ops); k += 500 {
					t.Apply(ops[k:min(k+500, len(ops))])
				}
				after := heapBytes()
				if t.Len() != len(routes) {
					b.Fatalf("Len = %d, want %d", t.Len(), len(routes))
				}
				b.ReportMetric(float64(after-before)/float64(len(routes)), "B/prefix")
			}
		})
	}
}
