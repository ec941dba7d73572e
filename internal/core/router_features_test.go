package core

import (
	"fmt"
	"testing"
	"time"

	"bgpbench/internal/damping"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

func TestRouterFlapDampingSuppressesUnstableRoute(t *testing.T) {
	cfg := testRouterConfig(NeighborConfig{AS: 65001})
	// Suppress below two full penalties: with default limits the second
	// flap lands at 2000 minus epsilon of decay, so real configurations
	// need three flaps; 1800 makes two flaps suppress deterministically.
	cfg.Damping = &damping.Config{SuppressLimit: 1800}
	r := mustStartRouter(t, cfg)
	defer r.Stop()
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()

	route := []Route{{
		Prefix: netaddr.MustParsePrefix("192.0.2.0/24"),
		Path:   wire.NewASPath(65001, 7),
	}}

	// Announce; withdraw (flap 1); re-announce; withdraw (flap 2);
	// re-announce -> suppressed.
	sp.announce(t, route, 1)
	waitFor(t, 5*time.Second, func() bool { return r.FIB().Len() == 1 })
	sp.withdraw(t, route, 1)
	waitFor(t, 5*time.Second, func() bool { return r.FIB().Len() == 0 })
	sp.announce(t, route, 1)
	waitFor(t, 5*time.Second, func() bool { return r.FIB().Len() == 1 })
	sp.withdraw(t, route, 1)
	waitFor(t, 5*time.Second, func() bool { return r.FIB().Len() == 0 })

	sp.announce(t, route, 1)
	// The re-announcement must be suppressed: transactions advance but the
	// FIB stays empty.
	waitFor(t, 5*time.Second, func() bool { return r.Transactions() >= 5 })
	time.Sleep(20 * time.Millisecond)
	if r.FIB().Len() != 0 {
		t.Fatalf("suppressed route installed: FIB len %d", r.FIB().Len())
	}
	if r.Damper() == nil || r.Damper().Flaps() < 2 {
		t.Fatalf("damper flaps = %v", r.Damper().Flaps())
	}
}

func TestRouterDampingStableRouteUnaffected(t *testing.T) {
	cfg := testRouterConfig(NeighborConfig{AS: 65001})
	cfg.Damping = &damping.Config{}
	r := mustStartRouter(t, cfg)
	defer r.Stop()
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()

	routes := GenerateTable(TableGenConfig{N: 100, Seed: 9, FirstAS: 65001})
	sp.announce(t, routes, 50)
	waitFor(t, 5*time.Second, func() bool { return r.FIB().Len() == 100 })
	// Identical re-announcement is not a flap.
	sp.announce(t, routes, 50)
	waitFor(t, 5*time.Second, func() bool { return r.Transactions() == 200 })
	if got := r.Damper().Flaps(); got != 0 {
		t.Fatalf("stable routes produced %d flaps", got)
	}
	if r.FIB().Len() != 100 {
		t.Fatalf("FIB len = %d", r.FIB().Len())
	}
}

// onBothTables runs an MRAI scenario once per group keying — a group
// per peer (once a table of its own), then groups by export treatment —
// and requires the two runs to leave the same Adj-RIB-Out toward each
// receiving peer.
func onBothTables(t *testing.T, mrai time.Duration, run func(t *testing.T, r *Router) (adjOut string)) {
	var digests [2]string
	for i, grouped := range []bool{false, true} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			cfg := testRouterConfig(
				NeighborConfig{AS: 65001},
				NeighborConfig{AS: 65002},
			)
			cfg.MRAI = mrai
			cfg.UpdateGroups = grouped
			r := mustStartRouter(t, cfg)
			defer r.Stop()
			digests[i] = run(t, r)
		})
	}
	if !t.Failed() && digests[0] != digests[1] {
		t.Errorf("Adj-RIB-Out differs between the keyings:\nper-peer:\n%sgrouped:\n%s", digests[0], digests[1])
	}
}

func TestRouterMRAICoalescesChurn(t *testing.T) {
	const mrai = 100 * time.Millisecond
	onBothTables(t, mrai, func(t *testing.T, r *Router) string {
		sp1 := dialSpeaker(t, r, 65001, "1.1.1.1")
		defer sp1.stop()
		sp2 := dialSpeaker(t, r, 65002, "2.2.2.2")
		defer sp2.stop()

		// Churn one prefix rapidly: announce/withdraw 20 times within one MRAI
		// window, ending announced. Speaker 2 should see far fewer UPDATEs
		// than 40 — ideally the coalesced net result.
		route := []Route{{
			Prefix: netaddr.MustParsePrefix("203.0.113.0/24"),
			Path:   wire.NewASPath(65001, 9),
		}}
		for i := 0; i < 20; i++ {
			sp1.announce(t, route, 1)
			sp1.withdraw(t, route, 1)
		}
		sp1.announce(t, route, 1)
		waitFor(t, 5*time.Second, func() bool { return r.Transactions() >= 41 })

		// Wait two MRAI windows for the flush, then check the peer's view.
		waitFor(t, 5*time.Second, func() bool { return sp2.prefixesIn.Load() >= 1 })
		time.Sleep(250 * time.Millisecond)
		updates := sp2.prefixesIn.Load() + sp2.withdrawsIn.Load()
		if updates > 8 {
			t.Fatalf("MRAI sent %d route events for 41 input churns; want strong coalescing", updates)
		}
		// Final state must be correct: the route is announced.
		if sp2.prefixesIn.Load() < 1 {
			t.Fatal("net announcement never delivered")
		}
		if r.FIB().Len() != 1 {
			t.Fatalf("FIB len = %d", r.FIB().Len())
		}

		// A flap that is back where it started when its window closes
		// sends nothing and is counted. A window boundary can fall between
		// the withdrawal and the re-announcement (they usually share one
		// batch), so a few attempts are allowed.
		suppressed := false
		for try := 0; try < 3 && !suppressed; try++ {
			tx, events, before := r.Transactions(), sp2.prefixesIn.Load()+sp2.withdrawsIn.Load(), r.GroupStats().Suppressed
			sp1.withdraw(t, route, 1)
			sp1.announce(t, route, 1)
			waitFor(t, 5*time.Second, func() bool { return r.Transactions() >= tx+2 })
			time.Sleep(2*mrai + mrai/2)
			suppressed = r.GroupStats().Suppressed > before && sp2.prefixesIn.Load()+sp2.withdrawsIn.Load() == events
		}
		if !suppressed {
			t.Error("a withdraw/re-announce flap inside one MRAI window was never suppressed")
		}
		return adjFingerprint(r, "2.2.2.2")
	})
}

func TestRouterMRAIBulkTransferStillBatches(t *testing.T) {
	onBothTables(t, 50*time.Millisecond, func(t *testing.T, r *Router) string {
		sp1 := dialSpeaker(t, r, 65001, "1.1.1.1")
		defer sp1.stop()
		routes := UniformPath(
			GenerateTable(TableGenConfig{N: 600, Seed: 10, FirstAS: 65001}),
			wire.NewASPath(65001, 70, 71),
		)
		sp1.announce(t, routes, 200)
		waitFor(t, 5*time.Second, func() bool { return r.FIB().Len() == 600 })

		sp2 := dialSpeaker(t, r, 65002, "2.2.2.2")
		defer sp2.stop()
		// Phase 2 export is immediate (not MRAI-gated).
		waitFor(t, 10*time.Second, func() bool { return sp2.prefixesIn.Load() == 600 })

		// Incremental changes flow via MRAI with attribute grouping.
		shorter := make([]Route, len(routes))
		for i, rt := range routes {
			shorter[i] = Shorten(rt, 65002)
		}
		sp1rcvBefore := sp1.prefixesIn.Load()
		sp2.announce(t, shorter, 200)
		waitFor(t, 10*time.Second, func() bool { return sp1.prefixesIn.Load() >= sp1rcvBefore+600 })
		return adjFingerprint(r, "1.1.1.1") + adjFingerprint(r, "2.2.2.2")
	})
}

func TestRouterMaxPrefixesTearsDownSession(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001, MaxPrefixes: 100}))
	defer r.Stop()
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()

	// One UPDATE carries all of it: what is still in the socket when the
	// router stops the session dies with it, and would make the count
	// below depend on how far the reader had got.
	routes := UniformPath(GenerateTable(TableGenConfig{N: 150, Seed: 14, FirstAS: 65001}), wire.NewASPath(65001, 7))
	sp.announce(t, routes, len(routes))

	// The session must go down and every contributed route must vanish.
	waitFor(t, 10*time.Second, func() bool { return !sp.sess.Established() })
	waitFor(t, 10*time.Second, func() bool { return r.FIB().Len() == 0 && r.RIBLen() == 0 })

	// Every prefix sent is one transaction, whether it arrived under the
	// limit, crossed it, or followed the crossing in the same UPDATE. The
	// teardown then counts one withdrawal per route it removed, which is
	// half the FIB's changes: each was installed once and deleted once.
	if got, want := r.Transactions(), uint64(len(routes))+r.FIBChanges()/2; got != want {
		t.Errorf("Transactions() = %d, want the %d prefixes sent + %d withdrawn by the teardown", got, len(routes), r.FIBChanges()/2)
	}
}

func TestRouterMaxPrefixesAllowsWithinLimit(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001, MaxPrefixes: 200}))
	defer r.Stop()
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()

	routes := GenerateTable(TableGenConfig{N: 200, Seed: 15, FirstAS: 65001})
	sp.announce(t, routes, 50)
	waitFor(t, 10*time.Second, func() bool { return r.FIB().Len() == 200 })
	if !sp.sess.Established() {
		t.Fatal("session should survive at exactly the limit")
	}
	// Withdrawals free budget: withdraw half, announce a fresh half.
	sp.withdraw(t, routes[:100], 50)
	waitFor(t, 10*time.Second, func() bool { return r.FIB().Len() == 100 })
	fresh := GenerateTable(TableGenConfig{N: 100, Seed: 16, FirstAS: 65001})
	sp.announce(t, fresh, 50)
	waitFor(t, 10*time.Second, func() bool { return r.FIB().Len() == 200 })
	if !sp.sess.Established() {
		t.Fatal("session should survive after withdraw/announce churn within limit")
	}
}

func TestRouterRIBLen(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001}))
	defer r.Stop()
	if got := r.RIBLen(); got != 0 {
		t.Fatalf("empty RIBLen = %d", got)
	}
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer sp.stop()
	routes := GenerateTable(TableGenConfig{N: 70, Seed: 17, FirstAS: 65001})
	sp.announce(t, routes, 70)
	waitFor(t, 5*time.Second, func() bool { return r.RIBLen() == 70 })
	if r.RIBLen() != r.FIB().Len() {
		t.Fatalf("RIB (%d) and FIB (%d) disagree", r.RIBLen(), r.FIB().Len())
	}
}
