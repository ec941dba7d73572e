package session

import (
	"net"
	"strings"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// stalledPeer establishes a passive session with a raw TCP peer that
// completes the OPEN/KEEPALIVE exchange and then never reads again. Both
// socket buffers on the path are shrunk, so a modest burst fills them
// and parks the session's writes. Closing raw releases them.
func stalledPeer(t *testing.T, hold uint16) (s *Session, c *collector, raw net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c = newCollector()
	s = New(Config{
		FSM: fsm.Config{
			LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
			HoldTime: hold, PeerAS: 65001, Passive: true,
		},
		Handler: c,
		Name:    "stalled",
	})
	s.Start()
	raw, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	s.Attach(conn)

	w := wire.NewWriter(raw)
	if err := w.WriteMessage(wire.NewOpen(65001, hold, netaddr.MustParseAddr("1.1.1.1"))); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	for _, want := range []wire.MsgType{wire.MsgOpen, wire.MsgKeepalive} {
		m, err := r.ReadMessage()
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
	waitEstablished(t, c, "stalled")
	return s, c, raw
}

// within runs f on its own goroutine and reports whether it returned
// within d; a call that hangs is left behind instead of hanging the test.
func within(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// sendAll sends m count times, failing the test if that takes seconds:
// Send never blocks, whatever the peer does.
func sendAll(t *testing.T, s *Session, m wire.Message, count int) {
	t.Helper()
	start := time.Now()
	var err error
	if !within(5*time.Second, func() {
		for i := 0; i < count && err == nil; i++ {
			err = s.Send(m)
		}
	}) {
		t.Fatalf("%d Sends to a peer that stopped reading did not return", count)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d Sends took %v", count, time.Since(start))
}

// TestStalledPeerCannotWedgeSession: a peer that stops reading fills the
// socket buffers and parks the event loop's write. Sends must still
// return at once; the send hold timer must fail the write and take the
// session Down within twice the hold time; and Stop must end a session
// parked that way within its two-second grace.
func TestStalledPeerCannotWedgeSession(t *testing.T) {
	u := wire.Update{Attrs: wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65002, 1, 2, 3), netaddr.MustParseAddr("10.0.0.1"))}
	for i := 0; i < 100; i++ {
		u.NLRI = append(u.NLRI, netaddr.PrefixFrom(netaddr.AddrFrom4(10, 0, byte(i), 0), 24))
	}
	var m wire.Message = u // about 450 bytes on the wire

	t.Run("SendHoldTimer", func(t *testing.T) {
		t.Parallel()
		const hold = 3
		s, c, raw := stalledPeer(t, hold)
		defer s.Stop()
		defer raw.Close()
		const burst = 1000
		sendAll(t, s, m, burst)
		select {
		case err := <-c.downs:
			if err == nil || !strings.Contains(err.Error(), "send hold timer expired") {
				t.Errorf("Down(%v), want the send hold timer's expiry", err)
			}
		case <-time.After(2*hold*time.Second + 2*time.Second):
			t.Fatal("session toward a peer that stopped reading never went down")
		}
		if out := s.Stats.UpdatesOut.Load(); out >= burst {
			t.Fatalf("all %d UPDATEs were written: the peer's buffers never filled", out)
		}
	})

	t.Run("SendsAndStop", func(t *testing.T) {
		t.Parallel()
		s, _, raw := stalledPeer(t, 90)
		defer raw.Close()
		sendAll(t, s, m, 100_000)
		if !within(3*time.Second, s.Stop) {
			t.Fatal("Stop did not return within its grace plus one second")
		}
		if err := s.Send(m); err == nil {
			t.Fatal("Send after Stop succeeded")
		}
	})
}
