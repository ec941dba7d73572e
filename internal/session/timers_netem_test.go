package session

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
	"bgpbench/internal/wire"
)

// passiveFarm accepts every inbound connection on ln and runs each one as
// a fresh passive session, the way the router's accept loop does. It lets
// an active session flap and redial as many times as its fault profile
// demands.
type passiveFarm struct {
	ln       net.Listener
	sessions chan *Session
	done     chan struct{}
}

func startPassiveFarm(t *testing.T, hold uint16) *passiveFarm {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &passiveFarm{ln: ln, sessions: make(chan *Session, 16), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s := New(Config{
				FSM: fsm.Config{
					LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
					HoldTime: hold, Passive: true,
				},
				Name: "farm-passive",
			})
			s.Start()
			s.Attach(conn)
			select {
			case f.sessions <- s:
			default:
				s.Stop()
			}
		}
	}()
	return f
}

func (f *passiveFarm) stop() {
	f.ln.Close()
	<-f.done
	for {
		select {
		case s := <-f.sessions:
			s.Stop()
		default:
			return
		}
	}
}

// TestHoldTimerExpiryUnderReadStall: a netem read stall longer than the
// negotiated hold time starves the active side of keepalives even though
// the peer keeps sending them. The hold timer must fire, send the
// hold-timer NOTIFICATION, and take the session down — the stall-profile
// analogue of a peer wedged behind a congested link. The timer was first
// scheduled for the 240 s pre-OPEN bound, so this also checks that the
// negotiated 3 s deadline re-arms it sooner.
func TestHoldTimerExpiryUnderReadStall(t *testing.T) {
	if testing.Short() {
		t.Skip("hold-timer expiry waits out a 3s hold time")
	}
	farm := startPassiveFarm(t, 3)
	defer farm.stop()

	// The handshake reads 68 bytes (peer OPEN 49 — 29 base plus the
	// MP-v4/MP-v6/4-octet-AS capability block — + KEEPALIVE 19); a stall
	// window of [69, 87) lands inside the first post-handshake keepalive,
	// delaying its delivery past the 3s hold deadline. Real clock: the
	// stall must cost wall time for the hold timer to lose the race.
	inj := netem.NewInjector(netem.Profile{
		Name:            "read-stall",
		Seed:            7,
		ReadStallEvents: 1,
		ReadStallFor:    4 * time.Second,
		MinOffset:       69,
		Horizon:         87,
	}, netem.NewRealClock())

	ac := newCollector()
	active := New(Config{
		FSM: fsm.Config{
			LocalAS: 65001, LocalID: netaddr.MustParseAddr("1.1.1.1"),
			HoldTime: 3,
		},
		DialTarget: farm.ln.Addr().String(),
		Dial:       inj.Dial("active"),
		Handler:    ac,
		Name:       "active",
	})
	active.Start()
	defer active.Stop()
	waitEstablished(t, ac, "active")

	var downErr error
	select {
	case downErr = <-ac.downs:
	case <-time.After(10 * time.Second):
		t.Fatalf("hold timer never fired (stats %+v)", inj.Stats())
	}
	if active.Established() {
		t.Fatal("active still established after hold expiry")
	}
	var ne *wire.NotifyError
	if !errors.As(downErr, &ne) || ne.Code != wire.ErrCodeHoldTimer {
		t.Fatalf("down error = %v, want hold-timer NotifyError", downErr)
	}
	if st := inj.Stats(); st.ReadStalls != 1 {
		t.Fatalf("read stalls = %d, want 1 (stats %+v)", st.ReadStalls, st)
	}
}

// TestConnectRetryBackoffUnderResets: a flap-reset-style profile kills the
// first three connection attempts inside the OPEN write. Each failure must
// land the session back in Active with the retry timer armed, and the
// fourth (clean) attempt must establish — counting exactly one dial per
// ConnectRetry cycle.
func TestConnectRetryBackoffUnderResets(t *testing.T) {
	farm := startPassiveFarm(t, 30)
	defer farm.stop()

	// OPEN is 49 bytes; a reset in [19, 29) fires inside that first write,
	// so the failure is seen from OpenSent (retry path), never from
	// OpenConfirm (terminal path).
	inj := netem.NewInjector(netem.Profile{
		Name:            "open-reset",
		Seed:            5,
		ResetEvents:     1,
		MinOffset:       19,
		Horizon:         29,
		FaultedAttempts: 3,
	}, netem.NewRealClock())

	const retry = 150 * time.Millisecond
	ac := newCollector()
	start := time.Now()
	active := New(Config{
		FSM: fsm.Config{
			LocalAS: 65001, LocalID: netaddr.MustParseAddr("1.1.1.1"),
			HoldTime: 30,
		},
		DialTarget:   farm.ln.Addr().String(),
		ConnectRetry: retry,
		Dial:         inj.Dial("active"),
		Handler:      ac,
		Name:         "active",
	})
	active.Start()
	defer active.Stop()
	waitEstablished(t, ac, "active")
	elapsed := time.Since(start)

	st := inj.Stats()
	if st.Resets != 3 {
		t.Fatalf("resets = %d, want 3 (stats %+v)", st.Resets, st)
	}
	if st.Dials < 4 {
		t.Fatalf("dials = %d, want >= 4 (three faulted + one clean)", st.Dials)
	}
	// Three failed attempts each wait out a full ConnectRetry interval.
	if elapsed < 3*retry {
		t.Fatalf("established after %v, faster than 3 ConnectRetry intervals (%v)", elapsed, 3*retry)
	}
	if err := active.Err(); err == nil || !strings.Contains(err.Error(), "reset") {
		t.Fatalf("recorded error = %v, want injected reset", err)
	}
}
