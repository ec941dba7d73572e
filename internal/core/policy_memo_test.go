package core

import (
	"slices"
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// Route maps shaped like the repository benchmark's transit_large
// workload: import prefers (LOCAL_PREF 200) short paths from the injector
// inside 128.0.0.0/2; export sets MED 1000 on 64.0.0.0/6 and longer. Both
// permit everything else unchanged, so one UPDATE's prefixes split
// between two terms on each side.
const (
	sliverInjectorAS = 65001
	sliverLocalPref  = 200
	sliverMED        = 1000
)

var (
	sliverImportRange = netaddr.MustParsePrefix("128.0.0.0/2")
	sliverExportRange = netaddr.MustParsePrefix("64.0.0.0/6")
)

func sliverImport() *policy.RouteMap {
	lp := uint32(sliverLocalPref)
	return &policy.RouteMap{
		Name: "sliver-import",
		Terms: []policy.Term{{
			Match: policy.Match{
				PrefixList: &policy.PrefixList{Rules: []policy.PrefixRule{{
					Prefix: sliverImportRange, GE: sliverImportRange.Len(), Action: policy.Permit,
				}}},
				ASPath: &policy.ASPathCond{NeighborAS: sliverInjectorAS, MaxLen: 3},
			},
			Set:    policy.Set{LocalPref: &lp},
			Action: policy.Permit,
		}},
		DefaultPermit: true,
	}
}

func sliverExport() *policy.RouteMap {
	med := uint32(sliverMED)
	return &policy.RouteMap{
		Name: "sliver-export",
		Terms: []policy.Term{{
			Match: policy.Match{PrefixList: &policy.PrefixList{Rules: []policy.PrefixRule{{
				Prefix: sliverExportRange, GE: sliverExportRange.Len(), Action: policy.Permit,
			}}}},
			Set:    policy.Set{MED: &med},
			Action: policy.Permit,
		}},
		DefaultPermit: true,
	}
}

// sliverRouter builds a one-shard router with an injector importing
// through sliverImport and a receiver exporting through sliverExport,
// both up, for synchronous processUpdateBatch calls.
func sliverRouter(t testing.TB) (r *Router, injector, receiver *peerState) {
	t.Helper()
	r, err := NewRouter(Config{
		AS:     65000,
		ID:     netaddr.MustParseAddr("10.255.0.1"),
		Shards: 1,
		Neighbors: []NeighborConfig{
			{AS: sliverInjectorAS, Import: sliverImport()},
			{AS: 65002, Export: sliverExport()},
			{AS: 65003, Export: sliverExport()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	injector = benchPeerCfg(r, netaddr.MustParseAddr("1.1.1.1"), NeighborConfig{AS: sliverInjectorAS, Import: sliverImport()})
	receiver = benchPeer(r, netaddr.MustParseAddr("2.2.2.2"), 65002, sliverExport())
	return r, injector, receiver
}

// sliverUpdates packs n prefixes sharing one short injector path into
// UPDATEs of 500 prefixes each, in prefix order as a table walk sends
// them.
func sliverUpdates(n int) ([]Route, []wire.Update) {
	table := UniformPath(
		GenerateTable(TableGenConfig{N: n, Seed: 5, FirstAS: sliverInjectorAS}),
		wire.NewASPath(sliverInjectorAS, 100, 101),
	)
	slices.SortFunc(table, func(a, b Route) int { return a.Prefix.Compare(b.Prefix) })
	return table, Updates(table, netaddr.MustParseAddr("1.1.1.1"), 500)
}

// TestPolicyTermsSplitSharedAttrs: the import and export transforms are
// memoized per attribute block and term, never per attribute block
// alone. One attribute block carries prefixes on both sides of each
// map's term; every Loc-RIB entry must carry its own term's LOCAL_PREF
// and every group-table entry its own term's MED, both for the live
// table step and for a later member's rebuild from the Loc-RIB.
func TestPolicyTermsSplitSharedAttrs(t *testing.T) {
	r, injector, receiver := sliverRouter(t)
	table, upds := sliverUpdates(2000)
	r.processUpdateBatch(0, injector, upds)

	late := benchPeer(r, netaddr.MustParseAddr("3.3.3.3"), 65003, sliverExport())
	for s := r.shards[0]; len(s.catchups) > 0; {
		r.runCatchupChunk(0, s)
	}

	var inImport, inExport int
	for _, rt := range table {
		p := rt.Prefix
		id, cand, ok := r.rib.Shard(0).Entry(p)
		if !ok {
			t.Fatalf("%v missing from the Loc-RIB", p)
		}
		wantLP := sliverImportRange.Contains(p.Addr()) && p.Len() >= sliverImportRange.Len()
		if wantLP {
			inImport++
		}
		if got := cand.Attrs.HasLocalPref && cand.Attrs.LocalPref == sliverLocalPref; got != wantLP {
			t.Errorf("%v: Loc-RIB LOCAL_PREF %v/%d, want set=%v", p, cand.Attrs.HasLocalPref, cand.Attrs.LocalPref, wantLP)
		}
		wantMED := sliverExportRange.Contains(p.Addr()) && p.Len() >= sliverExportRange.Len()
		if wantMED {
			inExport++
		}
		for _, ps := range []*peerState{receiver, late} {
			a, ok := ps.group.shards[0].adjOut.Lookup(id)
			if !ok {
				t.Fatalf("%v missing from %v's group table", p, ps.info.Addr)
			}
			if got := a.HasMED && a.MED == sliverMED; got != wantMED {
				t.Errorf("%v to %v: MED %v/%d, want set=%v", p, ps.info.Addr, a.HasMED, a.MED, wantMED)
			}
		}
	}
	if inImport == 0 || inImport == len(table) || inExport == 0 || inExport == len(table) {
		t.Fatalf("table does not straddle the terms: %d/%d import, %d/%d export",
			inImport, len(table), inExport, len(table))
	}
}

// TestPolicySteadyStateAllocs: once every distinct path has been seen,
// 500-prefix UPDATEs through an import and an export route map allocate
// (almost) nothing per prefix: the transforms are map hits, not a clone,
// prepend and intern per prefix. The prefixes are in order, so each
// export term's prefixes are contiguous and the emitted runs long: what
// is left is the sink's one UPDATE per run.
func TestPolicySteadyStateAllocs(t *testing.T) {
	r, injector, receiver := sliverRouter(t)
	table, upds := sliverUpdates(4000)
	longer := UniformPath(table, wire.NewASPath(sliverInjectorAS, 7, 8, 100, 101))
	updsLonger := Updates(longer, netaddr.MustParseAddr("1.1.1.1"), 500)
	round := func() {
		// Alternate two paths per prefix so every UPDATE changes the best
		// route and is exported.
		r.processUpdateBatch(0, injector, upds)
		drainOut([]*peerState{receiver})
		r.processUpdateBatch(0, injector, updsLonger)
		drainOut([]*peerState{receiver})
	}
	round() // warm-up: intern every path, fill the memos and scratch
	perPrefix := testing.AllocsPerRun(5, round) / float64(2*len(table))
	if perPrefix > 0.01 {
		t.Errorf("%.4f allocs per prefix in steady state, want <= 0.01", perPrefix)
	}
}
