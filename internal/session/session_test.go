package session

import (
	"net"
	"sync"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// collector records handler callbacks for assertions.
type collector struct {
	mu          sync.Mutex
	established chan struct{}
	downs       chan error
	updates     chan wire.Update
}

func newCollector() *collector {
	return &collector{
		established: make(chan struct{}, 4),
		downs:       make(chan error, 4),
		updates:     make(chan wire.Update, 4096),
	}
}

func (c *collector) Established(*Session)             { c.established <- struct{}{} }
func (c *collector) Down(_ *Session, err error)       { c.downs <- err }
func (c *collector) Update(_ *Session, u wire.Update) { c.updates <- u }

// startPair wires an active session to a passive one over loopback and
// waits for both to establish.
func startPair(t *testing.T, activeHold, passiveHold uint16) (active, passive *Session, ac, pc *collector, cleanup func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ac, pc = newCollector(), newCollector()
	passive = New(Config{
		FSM: fsm.Config{
			LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
			HoldTime: passiveHold, Passive: true,
		},
		Handler: pc,
		Name:    "passive",
	})
	passive.Start()

	acceptErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		passive.Attach(conn)
		acceptErr <- nil
	}()

	active = New(Config{
		FSM: fsm.Config{
			LocalAS: 65001, LocalID: netaddr.MustParseAddr("1.1.1.1"),
			HoldTime: activeHold,
		},
		DialTarget: ln.Addr().String(),
		Handler:    ac,
		Name:       "active",
	})
	active.Start()

	waitEstablished(t, ac, "active")
	waitEstablished(t, pc, "passive")
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	cleanup = func() {
		active.Stop()
		passive.Stop()
		ln.Close()
	}
	return active, passive, ac, pc, cleanup
}

func waitEstablished(t *testing.T, c *collector, name string) {
	t.Helper()
	select {
	case <-c.established:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s session did not establish", name)
	}
}

func TestSessionEstablishment(t *testing.T) {
	active, passive, _, _, cleanup := startPair(t, 90, 90)
	defer cleanup()
	if !active.Established() || !passive.Established() {
		t.Fatal("sessions should report established")
	}
	if active.State() != fsm.Established {
		t.Fatalf("active state = %v", active.State())
	}
}

func TestUpdateExchange(t *testing.T) {
	active, _, _, pc, cleanup := startPair(t, 90, 90)
	defer cleanup()

	const n = 500
	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001), netaddr.MustParseAddr("10.0.0.1"))
	for i := 0; i < n; i++ {
		u := wire.Update{
			Attrs: attrs,
			NLRI:  []netaddr.Prefix{netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<10), 22)},
		}
		if err := active.Send(u); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case <-pc.updates:
			got++
		case <-deadline:
			t.Fatalf("received %d/%d updates", got, n)
		}
	}
	if active.Stats.UpdatesOut.Load() != n {
		t.Errorf("UpdatesOut = %d", active.Stats.UpdatesOut.Load())
	}
}

func TestBidirectionalUpdates(t *testing.T) {
	active, passive, ac, pc, cleanup := startPair(t, 90, 90)
	defer cleanup()

	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65002), netaddr.MustParseAddr("10.0.0.2"))
	u := wire.Update{Attrs: attrs, NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("192.0.2.0/24")}}
	if err := passive.Send(u); err != nil {
		t.Fatal(err)
	}
	if err := active.Send(u); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]chan wire.Update{"active": ac.updates, "passive": pc.updates} {
		select {
		case got := <-ch:
			if len(got.NLRI) != 1 || got.NLRI[0] != netaddr.MustParsePrefix("192.0.2.0/24") {
				t.Fatalf("%s: wrong update %+v", name, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no update", name)
		}
	}
}

func TestGracefulStopSendsCease(t *testing.T) {
	active, _, _, pc, cleanup := startPair(t, 90, 90)
	defer cleanup()

	active.Stop()
	select {
	case err := <-pc.downs:
		if err == nil {
			t.Fatal("expected a down reason")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("passive side never saw the teardown")
	}
}

func TestPeerASMismatchResets(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	pc := newCollector()
	passive := New(Config{
		FSM: fsm.Config{
			LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
			HoldTime: 90, Passive: true,
			PeerAS: 64999, // will not match
		},
		Handler: pc, Name: "passive",
	})
	passive.Start()
	defer passive.Stop()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			passive.Attach(conn)
		}
	}()

	ac := newCollector()
	active := New(Config{
		FSM: fsm.Config{
			LocalAS: 65001, LocalID: netaddr.MustParseAddr("1.1.1.1"), HoldTime: 90,
		},
		DialTarget: ln.Addr().String(),
		Handler:    ac, Name: "active",
	})
	active.Start()
	defer active.Stop()

	// Neither side should establish; give the handshake a moment.
	select {
	case <-pc.established:
		t.Fatal("passive established despite AS mismatch")
	case <-ac.established:
		t.Fatal("active established despite AS mismatch")
	case <-time.After(1 * time.Second):
	}
}

func TestSendAfterStopErrors(t *testing.T) {
	active, _, _, _, cleanup := startPair(t, 90, 90)
	cleanup()
	if err := active.Send(wire.Keepalive{}); err == nil {
		t.Fatal("Send after Stop succeeded")
	}
}

func TestHoldTimerTeardown(t *testing.T) {
	if testing.Short() {
		t.Skip("hold-timer test sleeps for seconds")
	}
	// Hold time 3s (minimum legal): kill the passive side's event loop by
	// force-closing its transport and verify the active side tears down.
	active, passive, ac, _, cleanup := startPair(t, 3, 3)
	defer cleanup()

	// Silence the passive side without a clean close: stop its loop.
	passive.mu.Lock()
	conn := passive.conn
	passive.mu.Unlock()
	_ = conn
	passive.Stop() // sends CEASE; active sees NOTIFICATION and goes down

	select {
	case <-ac.downs:
	case <-time.After(10 * time.Second):
		t.Fatal("active session did not tear down")
	}
	if active.Established() {
		t.Fatal("active still established")
	}
}

func TestCountersTrackPrefixes(t *testing.T) {
	active, passive, _, pc, cleanup := startPair(t, 90, 90)
	defer cleanup()

	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001), netaddr.MustParseAddr("10.0.0.1"))
	u := wire.Update{
		Attrs: attrs,
		NLRI: []netaddr.Prefix{
			netaddr.MustParsePrefix("10.0.0.0/8"),
			netaddr.MustParsePrefix("10.1.0.0/16"),
		},
		Withdrawn: []netaddr.Prefix{netaddr.MustParsePrefix("172.16.0.0/12")},
	}
	if err := active.Send(u); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pc.updates:
	case <-time.After(5 * time.Second):
		t.Fatal("no update")
	}
	if got := passive.Stats.PrefixesIn.Load(); got != 2 {
		t.Errorf("PrefixesIn = %d, want 2", got)
	}
	if got := passive.Stats.WithdrawsIn.Load(); got != 1 {
		t.Errorf("WithdrawsIn = %d, want 1", got)
	}
}
