package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// checkColumnIDs asserts the id-lifetime invariant of the group tables
// (see applyToTable): a partition without members has no table, and
// every entry of a partition's table is under an id the shard's Loc-RIB
// holds. The second half is checked by counting: the table's entries at
// live ids must be all of its entries. Must run while the workers are
// idle.
func checkColumnIDs(t *testing.T, r *Router) {
	t.Helper()
	for si := range r.shards {
		shardRIB := r.rib.Shard(si)
		for _, g := range r.groups {
			sh := &g.shards[si]
			if len(sh.members) == 0 {
				if sh.adjOut != nil {
					t.Fatalf("shard %d: group %s has no members but keeps a table of %d entries", si, g.key, sh.adjOut.Len())
				}
				continue
			}
			live := 0
			for _, p := range shardRIB.LocPrefixesInto(nil) {
				id, _, _ := shardRIB.Entry(p)
				if _, ok := sh.adjOut.Lookup(id); ok {
					live++
				}
			}
			if n := sh.adjOut.Len(); n != live {
				t.Fatalf("shard %d: group %s holds %d entries, only %d under ids the Loc-RIB holds", si, g.key, n, live)
			}
		}
	}
}

// sentStream renders what ps's recorder holds, in order, one line per
// UPDATE: its withdrawn prefixes, then its AS path and NLRI. It empties
// the recorder.
func sentStream(t *testing.T, ps *peerState) []string {
	t.Helper()
	var out []string
	for _, m := range take(ps) {
		u, ok := m.(wire.Update)
		if !ok {
			t.Fatalf("sent %T, want a wire.Update from the single-recipient sink", m)
		}
		out = append(out, fmt.Sprintf("withdraw %v | %v announce %v", u.Withdrawn, u.Attrs.ASPath, u.NLRI))
	}
	return out
}

// sentPrefixes splits a stream into the prefixes it withdrew and the
// prefixes it announced, in the order sent.
func sentPrefixes(t *testing.T, ps *peerState) (withdrawn, announced []netaddr.Prefix) {
	t.Helper()
	for _, m := range take(ps) {
		u := m.(wire.Update)
		withdrawn = append(withdrawn, u.Withdrawn...)
		announced = append(announced, u.NLRI...)
	}
	return withdrawn, announced
}

// mraiRouter is a stopped one-shard router with an MRAI window: nothing
// flushes until the test calls flushMRAI.
func mraiRouter(t *testing.T, mrai time.Duration) (r *Router, feeder, receiver *peerState) {
	t.Helper()
	r, err := NewRouter(Config{
		AS:        65000,
		ID:        netaddr.MustParseAddr("10.255.0.1"),
		Shards:    1,
		MRAI:      mrai,
		Neighbors: []NeighborConfig{{AS: 65001}, {AS: 65002}},
	})
	if err != nil {
		t.Fatal(err)
	}
	feeder = benchPeer(r, netaddr.MustParseAddr("1.1.1.1"), 65001, nil)
	receiver = benchPeer(r, netaddr.MustParseAddr("2.2.2.2"), 65002, nil)
	return r, feeder, receiver
}

// TestMRAIFlushOrderDeterministic: the same MRAI window flushes into the
// same UPDATEs every time, its prefixes in prefix order. The windows mix
// many prefixes and attribute blocks, withdrawals, replacements and
// flaps; each router is driven synchronously through two windows, and
// the two routers' streams must be identical.
func TestMRAIFlushOrderDeterministic(t *testing.T) {
	table := GenerateTable(TableGenConfig{N: 3000, Seed: 9, FirstAS: 65001, AttrGroups: 60})
	var churn []Route
	for i, rt := range table {
		if i%3 == 1 {
			churn = append(churn, Route{Prefix: rt.Prefix, Path: rt.Path.Prepend(65001)})
		}
	}
	var gone []Route
	for i, rt := range table {
		if i%3 == 0 {
			gone = append(gone, rt)
		}
	}
	run := func() [][]string {
		r, feeder, receiver := mraiRouter(t, time.Hour)
		s := r.shards[0]
		var windows [][]string
		for _, batch := range [][]wire.Update{
			Updates(table, feeder.info.Addr, 500),
			append(append(Withdrawals(gone, 500), Updates(churn, feeder.info.Addr, 500)...), Updates(gone[:100], feeder.info.Addr, 500)...),
		} {
			r.processUpdateBatch(0, feeder, batch)
			if n := len(take(receiver)); n != 0 {
				t.Fatalf("%d UPDATEs sent inside an MRAI window", n)
			}
			r.flushMRAI(0, s, receiver.group)
			w := sentStream(t, receiver)
			if len(w) < 2 {
				t.Fatalf("window flushed into %d UPDATEs; the test wants several", len(w))
			}
			windows = append(windows, w)
		}
		checkColumnIDs(t, r)
		return windows
	}
	first, second := run(), run()
	for i := range first {
		if !slices.Equal(first[i], second[i]) {
			t.Fatalf("window %d flushed differently:\n%s\nvs\n%s", i, strings.Join(first[i], "\n"), strings.Join(second[i], "\n"))
		}
	}

	// The flushed prefixes come in prefix order.
	r, feeder, receiver := mraiRouter(t, time.Hour)
	r.processUpdateBatch(0, feeder, Updates(table, feeder.info.Addr, 500))
	r.flushMRAI(0, r.shards[0], receiver.group)
	_, announced := sentPrefixes(t, receiver)
	if len(announced) != len(table) || !slices.IsSortedFunc(announced, netaddr.Prefix.Compare) {
		t.Fatalf("flush announced %d of %d prefixes, sorted %v", len(announced), len(table), slices.IsSortedFunc(announced, netaddr.Prefix.Compare))
	}
}

// TestReusedIDReachesReceiver: one batch withdraws a prefix and announces
// a different one, which the Loc-RIB files under the id just freed. The
// receiver must be sent the withdrawal and the new route, and its
// Adj-RIB-Out must hold the new prefix with its own attributes, with and
// without an MRAI window. While the receiver is away its partition keeps
// no table, ids keep being reused, and on rejoining it is rebuilt whole.
func TestReusedIDReachesReceiver(t *testing.T) {
	for _, mrai := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("mrai=%v", mrai), func(t *testing.T) {
			r, feeder, receiver := mraiRouter(t, mrai)
			s, shardRIB := r.shards[0], r.rib.Shard(0)
			flush := func() {
				if mrai > 0 {
					r.flushMRAI(0, s, receiver.group)
				}
			}
			pfx := func(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
			old := []netaddr.Prefix{pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")}
			short := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 1), feeder.info.Addr)
			long := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 2, 3), feeder.info.Addr)
			r.processUpdateBatch(0, feeder, []wire.Update{{Attrs: short, NLRI: old}})
			flush()
			take(receiver)

			victim, fresh := old[1], pfx("192.0.2.0/24")
			freed, _, _ := shardRIB.Entry(victim)
			r.processUpdateBatch(0, feeder, []wire.Update{{Withdrawn: []netaddr.Prefix{victim}, Attrs: long, NLRI: []netaddr.Prefix{fresh}}})
			if id, _, _ := shardRIB.Entry(fresh); id != freed {
				t.Fatalf("%v took id %d, not the id %d %v freed: the test does not exercise reuse", fresh, id, freed, victim)
			}
			flush()
			withdrawn, announced := sentPrefixes(t, receiver)
			if !slices.Equal(withdrawn, []netaddr.Prefix{victim}) || !slices.Equal(announced, []netaddr.Prefix{fresh}) {
				t.Fatalf("receiver was sent withdraw %v, announce %v; want withdraw %v, announce %v", withdrawn, announced, victim, fresh)
			}
			want := func(routes map[netaddr.Prefix]wire.PathAttrs) {
				t.Helper()
				got := r.adjRoutes(0, s, receiver.info.Addr)
				if len(got) != len(routes) {
					t.Fatalf("Adj-RIB-Out holds %d routes, want %d: %v", len(got), len(routes), got)
				}
				for _, rt := range got {
					in, ok := routes[rt.Prefix]
					if !ok {
						t.Fatalf("Adj-RIB-Out holds %v, which is not in the Loc-RIB", rt.Prefix)
					}
					if wantPath := in.ASPath.Prepend(65000); !rt.Attrs.ASPath.Equal(wantPath) {
						t.Fatalf("%v exported with path %v, want %v", rt.Prefix, rt.Attrs.ASPath, wantPath)
					}
				}
				checkColumnIDs(t, r)
			}
			want(map[netaddr.Prefix]wire.PathAttrs{old[0]: short, old[2]: short, old[3]: short, fresh: long})

			// The receiver leaves: its partition drops the table. Another
			// id is freed and reused meanwhile.
			r.processPeerDown(0, receiver)
			checkColumnIDs(t, r)
			again := pfx("198.51.100.0/24")
			r.processUpdateBatch(0, feeder, []wire.Update{{Withdrawn: []netaddr.Prefix{old[0]}, Attrs: short, NLRI: []netaddr.Prefix{again}}})

			// It rejoins: a fresh table, rebuilt from the Loc-RIB.
			receiver = benchPeer(r, receiver.info.Addr, 65002, nil)
			for len(s.catchups) > 0 {
				r.runCatchupChunk(0, s)
			}
			flush()
			_, announced = sentPrefixes(t, receiver)
			slices.SortFunc(announced, netaddr.Prefix.Compare)
			if wantPfx := []netaddr.Prefix{old[2], old[3], fresh, again}; !slices.Equal(announced, wantPfx) {
				t.Fatalf("rejoined receiver was sent %v, want %v", announced, wantPfx)
			}
			want(map[netaddr.Prefix]wire.PathAttrs{old[2]: short, old[3]: short, fresh: long, again: short})
		})
	}
}

// TestEmptyPartitionDropsTable: a group partition that loses its last
// member drops its table while the group lives on elsewhere, so no entry
// outlives the id it was written under when the shard's Loc-RIB frees and
// reuses ids in the meantime.
func TestEmptyPartitionDropsTable(t *testing.T) {
	r, err := NewRouter(Config{
		AS:        65000,
		ID:        netaddr.MustParseAddr("10.255.0.1"),
		Shards:    2,
		Neighbors: []NeighborConfig{{AS: 65001}, {AS: 65002}},
	})
	if err != nil {
		t.Fatal(err)
	}
	feeder := benchPeer(r, netaddr.MustParseAddr("1.1.1.1"), 65001, nil)
	receiver := benchPeer(r, netaddr.MustParseAddr("2.2.2.2"), 65002, nil)
	table := groupTestTable(800)
	onShard := func(routes []Route, si int) (out []Route) {
		for _, rt := range routes {
			if r.rib.ShardFor(rt.Prefix) == r.rib.Shard(si) {
				out = append(out, rt)
			}
		}
		return out
	}
	for si := range r.shards {
		r.processUpdateBatch(si, feeder, Updates(onShard(table, si), feeder.info.Addr, 100))
	}
	checkColumnIDs(t, r)

	// Down on shard 0 only: the group is still registered and still has
	// its member on shard 1.
	r.processPeerDown(0, receiver)
	if g := receiver.group; g.shards[0].adjOut != nil || g.shards[1].adjOut.Len() == 0 {
		t.Fatalf("after leaving shard 0: shard 0 keeps a table %v, shard 1's holds %d entries; want none and a full one", g.shards[0].adjOut != nil, g.shards[1].adjOut.Len())
	}
	mine := onShard(table, 0)
	fresh := onShard(GenerateTable(TableGenConfig{N: 800, Seed: 12, FirstAS: 65001}), 0)
	r.processUpdateBatch(0, feeder, append(Withdrawals(mine[:len(mine)/2], 100), Updates(fresh, feeder.info.Addr, 100)...))
	checkColumnIDs(t, r)
}
