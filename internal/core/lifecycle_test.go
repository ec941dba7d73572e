package core

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/rib"
	"bgpbench/internal/wire"
)

// The lifecycle model: a peer bounces, so two sessions sharing one BGP
// ID have work in flight at once. The old session's handler still emits
// a late batch and its Down; the new session's handler emits its Up and
// first batch. Each handler's items stay in its own order on a shard's
// queue, but the two handlers are not ordered against each other.
const (
	stepUp2 = iota
	stepBatch2
	stepBatch1
	stepDown1
	nSteps
)

// The bounced peer of the lifecycle tests, and a router (workers not
// started) configured to accept it.
var (
	bouncedID   = netaddr.MustParseAddr("1.1.1.1")
	bouncedInfo = rib.PeerInfo{Addr: bouncedID, ID: bouncedID, AS: 65001, EBGP: true}
	bouncedCfg  = NeighborConfig{AS: 65001}
)

func lifecycleRouter(t *testing.T, shards int, grouped bool) *Router {
	t.Helper()
	r, err := NewRouter(Config{
		AS:           65000,
		ID:           netaddr.MustParseAddr("10.255.0.1"),
		Shards:       shards,
		UpdateGroups: grouped,
		Neighbors:    []NeighborConfig{bouncedCfg, {AS: 65002}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// registerBounced registers one more session of the bounced peer, on the
// next connection the router takes on.
func registerBounced(r *Router) *peerState {
	return r.register(bouncedInfo, bouncedCfg, [2]bool{true, true}, false, r.nextGen(), &recorder{})
}

// lifecycleOrders returns every interleaving two handler goroutines can
// produce: all orders with Up(ps2) before batch(ps2) and batch(ps1)
// before Down(ps1).
func lifecycleOrders() [][]int {
	var out [][]int
	var rec func(order []int, used [nSteps]bool)
	rec = func(order []int, used [nSteps]bool) {
		if len(order) == nSteps {
			out = append(out, append([]int(nil), order...))
			return
		}
		for s := 0; s < nSteps; s++ {
			if used[s] || (s == stepBatch2 && !used[stepUp2]) || (s == stepDown1 && !used[stepBatch1]) {
				continue
			}
			used[s] = true
			rec(append(order, s), used)
			used[s] = false
		}
	}
	rec(nil, [nSteps]bool{})
	return out
}

// capture runs produce, which enqueues work the way a session handler
// does, then takes what it queued back off every shard: items[si] is
// shard si's share, in order. The router's workers are not running.
func capture(r *Router, produce func()) [][]workItem {
	produce()
	items := make([][]workItem, r.nshards)
	for si, s := range r.shards {
		for len(s.work) > 0 {
			items[si] = append(items[si], <-s.work)
		}
	}
	return items
}

// handleAll processes captured items on the calling goroutine, shard by
// shard, exactly as each shard's worker would.
func handleAll(r *Router, items [][]workItem) {
	for si, ws := range items {
		for _, w := range ws {
			r.handleWork(si, r.shards[si], w)
		}
	}
}

// TestPeerLifecycleInterleavings drives the shard work handler directly
// — no sockets, no goroutines, no sleeps — through every interleaving of
// a bounced peer's two sessions, with a different interleaving on each
// shard, ungrouped and grouped. Whatever the order, the router must not
// panic, the Loc-RIB must hold exactly the successor's announcements,
// the predecessor's late items must be dropped and counted, the RIB's
// unregistered-peer invariant counter must stay zero, and once the
// successor goes down too nothing of either registration may remain.
func TestPeerLifecycleInterleavings(t *testing.T) {
	id := bouncedID
	obsID := netaddr.MustParseAddr("2.2.2.2")

	// One prefix universe; each session announces an overlapping window
	// of it under its own AS path, so a surviving route names its source.
	universe := GenerateTable(TableGenConfig{N: 128, Seed: 21, FirstAS: 65001})
	pathOld := wire.NewASPath(65001, 100, 101)
	pathNew := wire.NewASPath(65001, 200)
	before := Updates(UniformPath(universe[:96], pathOld), id, 8)   // ps1, settled before the bounce
	late := Updates(UniformPath(universe[64:], pathOld), id, 8)     // ps1, still in flight
	after := Updates(UniformPath(universe[32:112], pathNew), id, 8) // ps2
	want := make(map[netaddr.Prefix]bool)
	for _, rt := range universe[32:112] {
		want[rt.Prefix] = true
	}

	orders := lifecycleOrders()
	if len(orders) != 6 {
		t.Fatalf("model produced %d interleavings, want 6", len(orders))
	}
	for _, grouped := range []bool{false, true} {
		for _, n := range []int{1, 4} {
			for k := range orders {
				t.Run(fmt.Sprintf("grouped=%v/N=%d/order=%d", grouped, n, k), func(t *testing.T) {
					r := lifecycleRouter(t, n, grouped)
					// An observer stays up throughout, so every teardown
					// and announcement also runs the emission path.
					obs := benchPeer(r, obsID, 65002, nil)
					ps1 := benchPeer(r, id, 65001, nil)
					h1 := &routerHandler{r: r, ps: ps1}
					handleAll(r, capture(r, func() { h1.UpdateBatch(nil, before) }))

					// The bounce: the successor registers while the
					// predecessor's tail is still undelivered.
					ps2 := registerBounced(r)
					h2 := &routerHandler{r: r, ps: ps2}
					var steps [nSteps][][]workItem
					steps[stepUp2] = capture(r, func() { r.fanOut(workPeerUp, ps2) })
					steps[stepBatch2] = capture(r, func() { h2.UpdateBatch(nil, after) })
					steps[stepBatch1] = capture(r, func() { h1.UpdateBatch(nil, late) })
					steps[stepDown1] = capture(r, func() { h1.Down(nil, nil) })

					var wantStale uint64
					for si := range r.shards {
						taken := false // Up(ps2) handled on this shard
						for _, step := range orders[(k+si)%len(orders)] {
							if step == stepUp2 {
								taken = true
							} else if taken && (step == stepBatch1 || step == stepDown1) {
								wantStale += uint64(len(steps[step][si]))
							}
							for _, w := range steps[step][si] {
								r.handleWork(si, r.shards[si], w)
							}
						}
					}

					if got := r.StalePeerWork(); got != wantStale {
						t.Errorf("StalePeerWork = %d, want %d", got, wantStale)
					}
					if got := r.RIBUnregisteredDrops(); got != 0 {
						t.Errorf("RIBUnregisteredDrops = %d, want 0", got)
					}
					got := 0
					r.rib.WalkLoc(func(p netaddr.Prefix, c rib.Candidate) bool {
						got++
						if !want[p] || c.Peer.Addr != id || !c.Attrs.ASPath.Equal(pathNew) {
							t.Errorf("Loc-RIB holds %v via %v path %v: not one of ps2's announcements", p, c.Peer.Addr, c.Attrs.ASPath)
						}
						return true
					})
					if got != len(want) {
						t.Errorf("Loc-RIB has %d routes, want ps2's %d", got, len(want))
					}
					if adv := adjOutLen(r, obsID); adv != len(want) {
						t.Errorf("observer is advertised %d routes, want %d", adv, len(want))
					}
					if left := ps1.downLeft.Load(); left != 0 {
						t.Errorf("ps1.downLeft = %d after its teardown on every shard, want 0", left)
					}

					// Down(ps2): both registrations must be fully drained.
					handleAll(r, capture(r, func() { h2.Down(nil, nil) }))
					if r.StalePeerWork() != wantStale {
						t.Errorf("Down(ps2) counted as stale")
					}
					if n := r.rib.Len(); n != 0 {
						t.Errorf("Loc-RIB has %d routes after Down(ps2), want 0", n)
					}
					if adv := adjOutLen(r, obsID); adv != 0 {
						t.Errorf("observer is still advertised %d routes", adv)
					}
					if left := ps2.downLeft.Load(); left != 0 {
						t.Errorf("ps2.downLeft = %d, want 0", left)
					}
					for si, s := range r.shards {
						if len(s.owner) != 1 || s.owner[obsID] != obs {
							t.Errorf("shard %d owner table = %v, want only the observer", si, s.owner)
						}
					}
					r.mu.Lock()
					if len(r.peers) != 1 || r.peers[obsID] != obs {
						t.Errorf("r.peers = %v, want only the observer", r.peers)
					}
					for _, g := range r.groups {
						for si := range g.shards {
							if m, ok := g.shards[si].members[id]; ok {
								t.Errorf("group %q shard %d still has member %v (%p)", g.key, si, id, m)
							}
						}
					}
					r.mu.Unlock()
					for name, ps := range map[string]*peerState{"ps1": ps1, "ps2": ps2} {
						if !ps.detached.Load() {
							t.Errorf("%s still attached to its session", name)
						}
					}
				})
			}
		}
	}
}

// adjOutLen counts the routes the router currently advertises to a peer,
// through the same per-shard query DumpAdjOut asks.
func adjOutLen(r *Router, peerID netaddr.Addr) int {
	n := 0
	for si, s := range r.shards {
		n += len(r.adjRoutes(si, s, peerID))
	}
	return n
}

// TestPeerUpOvertakenBySuccessor: the two handlers' Up fan-outs are not
// ordered against each other, so a shard can see the successor's Up
// first. The predecessor's Up must then not take the address back (and
// tear the live session down); it and everything behind it is stale.
func TestPeerUpOvertakenBySuccessor(t *testing.T) {
	id := bouncedID
	r := lifecycleRouter(t, 1, false)
	ps1 := registerBounced(r)
	ps2 := registerBounced(r)
	h1 := &routerHandler{r: r, ps: ps1}
	h2 := &routerHandler{r: r, ps: ps2}
	table := GenerateTable(TableGenConfig{N: 16, Seed: 3, FirstAS: 65001})

	handleAll(r, capture(r, func() { r.fanOut(workPeerUp, ps2) }))
	handleAll(r, capture(r, func() { h2.UpdateBatch(nil, Updates(table, id, 4)) }))
	handleAll(r, capture(r, func() { r.fanOut(workPeerUp, ps1) }))
	handleAll(r, capture(r, func() { h1.UpdateBatch(nil, Updates(table[:4], id, 4)) }))
	handleAll(r, capture(r, func() { h1.Down(nil, nil) }))

	if got := r.StalePeerWork(); got != 3 {
		t.Errorf("StalePeerWork = %d, want 3 (Up, batch, Down of the overtaken session)", got)
	}
	if r.shards[0].owner[id] != ps2 {
		t.Error("the overtaken predecessor took the address from its successor")
	}
	if n := r.rib.Len(); n != len(table) {
		t.Errorf("Loc-RIB has %d routes, want the successor's %d", n, len(table))
	}
	// The overtaken Up is all the shard sees of ps1, so it also counts as
	// ps1's teardown there: once the successor is gone too, nobody holds
	// their group in the registry.
	if left := ps1.downLeft.Load(); left != 0 {
		t.Errorf("ps1.downLeft = %d, want 0", left)
	}
	handleAll(r, capture(r, func() { h2.Down(nil, nil) }))
	if n := r.GroupStats().Groups; n != 0 {
		t.Errorf("%d groups registered with no peer left", n)
	}
}

// TestRegisterRefusesOlderConnection: a bounced peer's abandoned
// connection can finish its handshake after the replacement's did. Its
// late registration must be refused, not take the address over — it
// would tear the live registration down again on its own EOF.
func TestRegisterRefusesOlderConnection(t *testing.T) {
	r := lifecycleRouter(t, 1, false)
	abandoned := r.nextGen() // taken on first, establishes last
	live := registerBounced(r)
	if late := r.register(bouncedInfo, bouncedCfg, [2]bool{true, true}, false, abandoned, &recorder{}); late != nil {
		t.Fatal("registration from the older connection accepted")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.peers[bouncedID] != live {
		t.Fatal("live registration displaced")
	}
	if live.detached.Load() {
		t.Fatal("live registration detached from its session")
	}
}

// TestRouterForgetsFinishedSessions: connections that come and go must
// cost the router nothing lasting. An inbound session ends with its
// connection — a port scan's connect-and-close as much as an established
// peer's bounce — and the router lets go of it then, not at Stop.
func TestRouterForgetsFinishedSessions(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001}))
	defer r.Stop()
	held := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.sessions)
	}
	sp := dialSpeaker(t, r, 65001, "1.1.1.1")
	// A route in the Loc-RIB says the router's side of the session is all
	// there: its Up has been handled.
	sp.announce(t, GenerateTable(TableGenConfig{N: 1, Seed: 1, FirstAS: 65001}), 1)
	waitFor(t, 5*time.Second, func() bool { return r.RIBLen() == 1 })
	baseGoroutines, baseSessions := runtime.NumGoroutine(), held()

	for i := 0; i < 200; i++ {
		conn, err := net.Dial("tcp", r.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	for i := 0; i < 6; i++ {
		sp.stop()
		waitFor(t, 5*time.Second, func() bool { return len(r.PeerIDs()) == 0 })
		sp = dialSpeaker(t, r, 65001, "1.1.1.1")
	}
	defer sp.stop()

	deadline := time.Now().Add(10 * time.Second)
	for (held() > baseSessions || runtime.NumGoroutine() > baseGoroutines) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := held(); n > baseSessions {
		t.Errorf("router holds %d sessions, %d before the connections came and went", n, baseSessions)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("%d goroutines, %d before the connections came and went", n, baseGoroutines)
	}
}
