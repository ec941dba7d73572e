package core

import (
	"net"
	"runtime"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// rawPeer connects to the router as a bare TCP peer with the given AS and
// BGP ID, completes the OPEN/KEEPALIVE exchange and returns the
// connection without reading from it again. Its receive buffer is
// shrunk, so the router's writes back up as soon as it stops reading.
// The test side runs no goroutine for it.
func rawPeer(t *testing.T, r *Router, as uint32, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", r.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(conn)
	if err := w.WriteMessage(wire.NewOpen(as, 90, netaddr.MustParseAddr(id))); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn)
	for _, want := range []wire.MsgType{wire.MsgOpen, wire.MsgKeepalive} {
		m, err := rd.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type() != want {
			t.Fatalf("handshake: got %v, want %v", m.Type(), want)
		}
	}
	if err := w.WriteMessage(wire.Keepalive{}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// stallingTable is more than the socket buffers toward a receiver that
// stopped reading can hold: paths of 200 ASNs, one per route, make every
// route its own UPDATE of about half a kilobyte, megabytes in all.
func stallingTable() []Route {
	return GenerateTable(TableGenConfig{N: 16384, Seed: 5, FirstAS: 65001, MinPathLen: 200, MaxPathLen: 200})
}

// shardsIdle reports whether every shard's work queue is empty.
func shardsIdle(r *Router) bool {
	for _, st := range r.ShardStats() {
		if st.QueueDepth > 0 {
			return false
		}
	}
	return true
}

// assertStalled fails the test unless the router's session toward id
// has written fewer than n UPDATEs: the receiver's buffers filled.
func assertStalled(t *testing.T, r *Router, id netaddr.Addr, n uint64) {
	t.Helper()
	r.mu.Lock()
	sess := r.peers[id].sess
	r.mu.Unlock()
	if out := sess.Stats.UpdatesOut.Load(); out >= n {
		t.Fatalf("the stalled receiver was written all %d UPDATEs: its buffers never filled", out)
	}
}

// TestStalledReceiverDoesNotBlockPropagation: while one receiver never
// reads, so that the router's writes to it back up, the injector's
// routes must still reach the FIB and a second, healthy receiver, and
// every shard queue must drain. Shard workers only ever enqueue to a
// session; none of them may wait on a peer's socket.
func TestStalledReceiverDoesNotBlockPropagation(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001}, NeighborConfig{AS: 65002}, NeighborConfig{AS: 65003}))
	defer r.Stop()
	inj := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer inj.stop()
	healthy := dialSpeaker(t, r, 65002, "2.2.2.2")
	defer healthy.stop()
	stalled := rawPeer(t, r, 65003, "3.3.3.3")
	stalledID := netaddr.MustParseAddr("3.3.3.3")
	waitFor(t, 5*time.Second, func() bool { return len(r.PeerIDs()) == 3 })

	table := stallingTable()
	n := uint64(len(table))
	inj.announce(t, table, 1)

	waitFor(t, 20*time.Second, func() bool {
		return uint64(r.FIB().Len()) == n && healthy.prefixesIn.Load() == n && shardsIdle(r)
	})
	assertStalled(t, r, stalledID, n)
	// Release the stalled transport before Stop tears the router down.
	stalled.Close()
}

// TestRouterPeerGoroutines: an established peer costs the router its
// session's two goroutines — the event loop and the reader — and no
// more: emission enqueues straight into the session.
func TestRouterPeerGoroutines(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001}, NeighborConfig{AS: 65002}, NeighborConfig{AS: 65003}))
	defer r.Stop()
	// settled returns the goroutine count once it has held still for a
	// while, so goroutines of earlier tests still winding down are not
	// counted against this one.
	settled := func() int {
		n := runtime.NumGoroutine()
		for still := 0; still < 25; still++ {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m != n {
				n, still = m, 0
			}
		}
		return n
	}
	base := settled()
	for k, as := range []uint32{65001, 65002, 65003} {
		conn := rawPeer(t, r, as, netaddr.AddrFrom4(1, 1, 1, byte(k+1)).String())
		defer conn.Close()
		waitFor(t, 5*time.Second, func() bool { return len(r.PeerIDs()) == k+1 })
		if got, want := settled()-base, 2*(k+1); got != want {
			t.Fatalf("%d established peers cost %d goroutines, want %d", k+1, got, want)
		}
	}
}

// TestRouterStopWithStalledReceiver: Stop must return within a session's
// two-second grace plus a second while the router's write to a receiver
// that stopped reading is parked.
func TestRouterStopWithStalledReceiver(t *testing.T) {
	r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001}, NeighborConfig{AS: 65003}))
	defer r.Stop()
	inj := dialSpeaker(t, r, 65001, "1.1.1.1")
	defer inj.stop()
	stalled := rawPeer(t, r, 65003, "3.3.3.3")
	defer stalled.Close()
	waitFor(t, 5*time.Second, func() bool { return len(r.PeerIDs()) == 2 })
	table := stallingTable()
	inj.announce(t, table, 1)
	waitFor(t, 20*time.Second, func() bool { return r.FIB().Len() == len(table) && shardsIdle(r) })
	assertStalled(t, r, netaddr.MustParseAddr("3.3.3.3"), uint64(len(table)))

	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(3 * time.Second):
		stalled.Close() // unpark the write, so the test ends
		<-stopped
		t.Fatal("Router.Stop did not return within its sessions' grace plus one second")
	}
}
