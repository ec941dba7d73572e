package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// pushedRuns packs items through the single-recipient sink and returns
// what was sent to the peer, one UPDATE per run.
func pushedRuns(t *testing.T, items []emitItem, limit int) []wire.Update {
	t.Helper()
	ps := &peerState{out: &recorder{}}
	pushEmitRuns(ps, items, limit)
	sent := take(ps)
	runs := make([]wire.Update, len(sent))
	for i, m := range sent {
		runs[i] = m.(wire.Update)
	}
	return runs
}

// TestRunPacker checks the run boundaries every emitter shares: a run is
// consecutive withdrawals or consecutive announcements of one interned
// attribute block, cut at limit.
func TestRunPacker(t *testing.T) {
	a := &wire.PathAttrs{ASPath: wire.NewASPath(65001, 1)}
	b := &wire.PathAttrs{ASPath: wire.NewASPath(65001, 2)}
	// stream builds n items per element of kinds: 'w' withdraw, 'a'/'b'
	// announce with that block.
	stream := func(kinds string, n int) []emitItem {
		var items []emitItem
		for _, k := range kinds {
			for i := 0; i < n; i++ {
				it := emitItem{prefix: netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(len(items)+1)<<8), 24)}
				switch k {
				case 'a':
					it.attrs = a
				case 'b':
					it.attrs = b
				}
				items = append(items, it)
			}
		}
		return items
	}
	const limit = 4
	for _, c := range []struct {
		name  string
		items []emitItem
		want  []int // run lengths; a run's kind is its first item's
	}{
		{"empty", nil, nil},
		{"one withdraw run", stream("w", 3), []int{3}},
		{"one same-attrs run", stream("a", 3), []int{3}},
		{"attrs change", stream("ab", 2), []int{2, 2}},
		{"withdraw between announces", stream("awa", 1), []int{1, 1, 1}},
		{"exactly limit", stream("a", limit), []int{limit}},
		{"limit+1", stream("a", limit+1), []int{limit, 1}},
		{"withdraws at limit+1", stream("w", limit+1), []int{limit, 1}},
		{"limit then change", stream("ab", limit), []int{limit, limit}},
	} {
		t.Run(c.name, func(t *testing.T) {
			runs := pushedRuns(t, c.items, limit)
			if len(runs) != len(c.want) {
				t.Fatalf("%d runs, want %d", len(runs), len(c.want))
			}
			at := 0
			for i, u := range runs {
				first := c.items[at]
				if n := len(u.Withdrawn) + len(u.NLRI); n != c.want[i] {
					t.Errorf("run %d carries %d prefixes, want %d", i, n, c.want[i])
				}
				if first.attrs == nil && len(u.NLRI) > 0 || first.attrs != nil && (len(u.Withdrawn) > 0 || !u.Attrs.Equal(*first.attrs)) {
					t.Errorf("run %d is not of the kind of the item it starts at", i)
				}
				at += c.want[i]
			}
		})
	}
}

// TestRunPackerPreservesOrder: for a random action stream, the runs
// concatenated are the input in order — packing never reorders or
// coalesces across a run boundary — every run is of one kind and at most
// limit long, and no run stops early.
func TestRunPackerPreservesOrder(t *testing.T) {
	blocks := []*wire.PathAttrs{nil,
		{ASPath: wire.NewASPath(65001, 1)}, {ASPath: wire.NewASPath(65001, 2)}, {ASPath: wire.NewASPath(65001, 3)},
	}
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 200; round++ {
		limit := 1 + rng.Intn(6)
		items := make([]emitItem, rng.Intn(60))
		for i := range items {
			items[i].prefix = netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(rng.Intn(40))<<8), 24)
			if i > 0 && rng.Intn(3) > 0 {
				items[i].attrs = items[i-1].attrs // make runs likely
			} else {
				items[i].attrs = blocks[rng.Intn(len(blocks))]
			}
		}
		at := 0
		prevLen := 0
		for ri, u := range pushedRuns(t, items, limit) {
			pfx, attrs := u.NLRI, &u.Attrs
			if len(u.Withdrawn) > 0 {
				pfx, attrs = u.Withdrawn, nil
			}
			if len(pfx) == 0 || len(pfx) > limit || len(u.Withdrawn) > 0 && len(u.NLRI) > 0 {
				t.Fatalf("round %d run %d: %d withdrawn + %d announced, limit %d", round, ri, len(u.Withdrawn), len(u.NLRI), limit)
			}
			same := func(it emitItem) bool {
				return it.attrs == nil && attrs == nil || it.attrs != nil && attrs != nil && attrs.Equal(*it.attrs)
			}
			if ri > 0 && prevLen < limit && same(items[at-1]) {
				t.Fatalf("round %d run %d: the previous run stopped at %d of %d before an item of its own kind", round, ri, prevLen, limit)
			}
			for _, p := range pfx {
				if at == len(items) || items[at].prefix != p || !same(items[at]) {
					t.Fatalf("round %d run %d: output diverges from input at item %d", round, ri, at)
				}
				at++
			}
			prevLen = len(pfx)
		}
		if at != len(items) {
			t.Fatalf("round %d: %d of %d items emitted", round, at, len(items))
		}
	}
}

// TestMRAIFlusherDoesNotLeakAcrossBounces: with MRAI on, bouncing a peer
// must cost nothing lasting on either table — the goroutine count
// returns to where the first establishment left it, and nothing keeps a
// superseded registration (and with it a dead peer's Adj-RIB-Out)
// reachable.
func TestMRAIFlusherDoesNotLeakAcrossBounces(t *testing.T) {
	const bounces = 6
	id := netaddr.MustParseAddr("1.1.1.1")
	for _, grouped := range []bool{false, true} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			cfg := testRouterConfig(NeighborConfig{AS: 65001}, NeighborConfig{AS: 65002})
			cfg.MRAI = 10 * time.Millisecond
			cfg.UpdateGroups = grouped
			r := mustStartRouter(t, cfg)
			defer r.Stop()
			obs := dialSpeaker(t, r, 65002, "2.2.2.2")
			defer obs.stop()

			var collected atomic.Int32
			// session brings the bounced peer up for the nth time, has it
			// announce through an MRAI window to the observer — a table
			// of its own each time: the same one could come back inside
			// the window its withdrawal is held in, and rightly go unsent
			// — and arms a finalizer on the registration it made.
			session := func(n int) *testSpeaker {
				sp := dialSpeaker(t, r, 65001, id.String())
				sp.announce(t, GenerateTable(TableGenConfig{N: 8, Seed: int64(n), FirstAS: 65001}), 1)
				waitFor(t, 5*time.Second, func() bool { return obs.prefixesIn.Load() >= uint64(n*8) })
				r.mu.Lock()
				runtime.SetFinalizer(r.peers[id], func(*peerState) { collected.Add(1) })
				r.mu.Unlock()
				return sp
			}
			sp := session(1)
			base := runtime.NumGoroutine()
			for i := 0; i < bounces; i++ {
				sp.stop()
				waitFor(t, 5*time.Second, func() bool { return len(r.PeerIDs()) == 1 })
				sp = session(i + 2)
			}
			defer sp.stop()
			waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base })
			waitFor(t, 5*time.Second, func() bool {
				runtime.GC()
				return collected.Load() == bounces
			})
		})
	}
}
