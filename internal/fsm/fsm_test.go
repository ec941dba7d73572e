package fsm

import (
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

func testConfig() Config {
	return Config{
		LocalAS:  65001,
		LocalID:  netaddr.MustParseAddr("1.1.1.1"),
		HoldTime: 90,
	}
}

func hasAction(acts []Action, t ActionType) bool {
	for _, a := range acts {
		if a.Type == t {
			return true
		}
	}
	return false
}

func peerOpen(as uint32, hold uint16) *wire.Open {
	o := wire.NewOpen(as, hold, netaddr.MustParseAddr("2.2.2.2"))
	return &o
}

// driveToEstablished walks the FSM through the standard handshake.
func driveToEstablished(t *testing.T, f *FSM) {
	t.Helper()
	acts := f.Handle(Event{Type: EvManualStart})
	if f.State() != Connect || !hasAction(acts, ActConnect) {
		t.Fatalf("after start: state=%v acts=%v", f.State(), acts)
	}
	acts = f.Handle(Event{Type: EvTCPConnEstablished})
	if f.State() != OpenSent || !hasAction(acts, ActSendOpen) {
		t.Fatalf("after conn: state=%v acts=%v", f.State(), acts)
	}
	acts = f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65002, 120)})
	if f.State() != OpenConfirm || !hasAction(acts, ActSendKeepalive) {
		t.Fatalf("after open: state=%v acts=%v", f.State(), acts)
	}
	acts = f.Handle(Event{Type: EvMsgKeepalive})
	if f.State() != Established || !hasAction(acts, ActEstablished) {
		t.Fatalf("after keepalive: state=%v acts=%v", f.State(), acts)
	}
}

func TestHappyPathHandshake(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	if f.HoldTime() != 90 {
		t.Errorf("negotiated hold = %d, want 90 (min of 90,120)", f.HoldTime())
	}
	if f.PeerOpen().AS != 65002 {
		t.Errorf("peer AS = %d", f.PeerOpen().AS)
	}
}

func TestHoldTimeNegotiationTakesMin(t *testing.T) {
	f := New(testConfig())
	f.Handle(Event{Type: EvManualStart})
	f.Handle(Event{Type: EvTCPConnEstablished})
	f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65002, 30)})
	if f.HoldTime() != 30 {
		t.Errorf("negotiated hold = %d, want 30", f.HoldTime())
	}
}

func TestHoldTimeZeroDisablesTimers(t *testing.T) {
	f := New(testConfig())
	f.Handle(Event{Type: EvManualStart})
	f.Handle(Event{Type: EvTCPConnEstablished})
	acts := f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65002, 0)})
	if f.HoldTime() != 0 {
		t.Fatalf("negotiated hold = %d, want 0", f.HoldTime())
	}
	if !hasAction(acts, ActStopHold) || !hasAction(acts, ActStopKeepalive) {
		t.Errorf("hold 0 should stop timers: %v", acts)
	}
	acts = f.Handle(Event{Type: EvMsgKeepalive})
	if hasAction(acts, ActStartHold) {
		t.Errorf("established with hold 0 should not start hold timer: %v", acts)
	}
}

func TestPassiveStart(t *testing.T) {
	cfg := testConfig()
	cfg.Passive = true
	f := New(cfg)
	acts := f.Handle(Event{Type: EvManualStart})
	if f.State() != Active || hasAction(acts, ActConnect) {
		t.Fatalf("passive start: state=%v acts=%v", f.State(), acts)
	}
	// Inbound connection arrives.
	acts = f.Handle(Event{Type: EvTCPConnEstablished})
	if f.State() != OpenSent || !hasAction(acts, ActSendOpen) {
		t.Fatalf("passive conn: state=%v acts=%v", f.State(), acts)
	}
	// Connect-retry expiry in passive mode stays put.
	f2 := New(cfg)
	f2.Handle(Event{Type: EvManualStart})
	f2.Handle(Event{Type: EvConnectRetryExpires})
	if f2.State() != Active {
		t.Fatalf("passive retry: state=%v", f2.State())
	}
}

func TestPeerASEnforcement(t *testing.T) {
	cfg := testConfig()
	cfg.PeerAS = 65002
	f := New(cfg)
	f.Handle(Event{Type: EvManualStart})
	f.Handle(Event{Type: EvTCPConnEstablished})
	acts := f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65099, 90)})
	if f.State() != Idle {
		t.Fatalf("wrong AS should reset to Idle, got %v", f.State())
	}
	if !hasAction(acts, ActSendNotify) {
		t.Fatalf("expected NOTIFICATION: %v", acts)
	}
	n := f.LastNotificationSent()
	if n == nil || n.Code != wire.ErrCodeOpen || n.Subcode != wire.ErrSubBadPeerAS {
		t.Fatalf("notification = %+v", n)
	}
}

func TestConnectionRetry(t *testing.T) {
	f := New(testConfig())
	f.Handle(Event{Type: EvManualStart})
	acts := f.Handle(Event{Type: EvTCPConnFails})
	if f.State() != Active || !hasAction(acts, ActStartConnectRetry) {
		t.Fatalf("conn fail: state=%v acts=%v", f.State(), acts)
	}
	acts = f.Handle(Event{Type: EvConnectRetryExpires})
	if f.State() != Connect || !hasAction(acts, ActConnect) {
		t.Fatalf("retry: state=%v acts=%v", f.State(), acts)
	}
}

// TestTransportLossBeforeEstablishedRetries: an active session that loses
// its transport anywhere in the handshake must come back to Active with
// the retry timer armed — from OpenConfirm as from OpenSent, because the
// peer's OPEN can be handled before the local write failure is. A
// passive session has nothing to re-dial and ends.
func TestTransportLossBeforeEstablishedRetries(t *testing.T) {
	for _, upTo := range []State{OpenSent, OpenConfirm} {
		f := New(testConfig())
		f.Handle(Event{Type: EvManualStart})
		f.Handle(Event{Type: EvTCPConnEstablished})
		if upTo == OpenConfirm {
			f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65002, 90)})
		}
		if f.State() != upTo {
			t.Fatalf("setup reached %v, want %v", f.State(), upTo)
		}
		acts := f.Handle(Event{Type: EvTCPConnFails})
		if f.State() != Active || !hasAction(acts, ActStartConnectRetry) {
			t.Errorf("conn fail in %v: state=%v acts=%v, want Active with the retry timer armed", upTo, f.State(), acts)
		}
	}

	for _, upTo := range []State{OpenSent, OpenConfirm} {
		cfg := testConfig()
		cfg.Passive = true
		f := New(cfg)
		f.Handle(Event{Type: EvManualStart})
		f.Handle(Event{Type: EvTCPConnEstablished})
		if upTo == OpenConfirm {
			f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65002, 90)})
		}
		acts := f.Handle(Event{Type: EvTCPConnFails})
		if f.State() != Idle || !hasAction(acts, ActCloseConn) {
			t.Errorf("passive conn fail in %v: state=%v acts=%v, want Idle", upTo, f.State(), acts)
		}
	}
}

func TestUpdateDelivery(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	u := &wire.Update{}
	acts := f.Handle(Event{Type: EvMsgUpdate, Update: u})
	found := false
	for _, a := range acts {
		if a.Type == ActDeliverUpdate && a.Update == u {
			found = true
		}
	}
	if !found {
		t.Fatalf("update not delivered: %v", acts)
	}
	if !hasAction(acts, ActStartHold) {
		t.Error("update should restart the hold timer")
	}
	if f.State() != Established {
		t.Errorf("state = %v", f.State())
	}
}

// TestHandleEstablishedAllocs guards the receive path's FSM step: in
// Established, handling an UPDATE or a KEEPALIVE allocates nothing, its
// actions returned in the FSM's scratch.
func TestHandleEstablishedAllocs(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	u := &wire.Update{}
	for _, ev := range []Event{{Type: EvMsgUpdate, Update: u}, {Type: EvMsgKeepalive}} {
		if got := testing.AllocsPerRun(100, func() { f.Handle(ev) }); got != 0 {
			t.Errorf("Handle(%v) allocated %v times, want 0", ev.Type, got)
		}
	}
	if f.State() != Established {
		t.Fatalf("state = %v", f.State())
	}
}

func TestKeepaliveRestartsHold(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	acts := f.Handle(Event{Type: EvMsgKeepalive})
	if !hasAction(acts, ActStartHold) {
		t.Errorf("keepalive should restart hold: %v", acts)
	}
}

func TestKeepaliveTimerSendsKeepalive(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	acts := f.Handle(Event{Type: EvKeepaliveTimerExpires})
	if !hasAction(acts, ActSendKeepalive) || !hasAction(acts, ActStartKeepalive) {
		t.Errorf("keepalive expiry: %v", acts)
	}
}

func TestHoldTimerExpiryTearsDown(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	acts := f.Handle(Event{Type: EvHoldTimerExpires})
	if f.State() != Idle {
		t.Fatalf("state = %v", f.State())
	}
	if !hasAction(acts, ActStopped) || !hasAction(acts, ActSendNotify) || !hasAction(acts, ActCloseConn) {
		t.Fatalf("acts = %v", acts)
	}
	if n := f.LastNotificationSent(); n == nil || n.Code != wire.ErrCodeHoldTimer {
		t.Fatalf("notification = %+v", n)
	}
}

func TestNotificationReceivedTearsDown(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	acts := f.Handle(Event{Type: EvMsgNotification, Notif: &wire.Notification{Code: wire.ErrCodeCease}})
	if f.State() != Idle || !hasAction(acts, ActStopped) || !hasAction(acts, ActCloseConn) {
		t.Fatalf("state=%v acts=%v", f.State(), acts)
	}
	// We must not send a NOTIFICATION in response to one.
	if hasAction(acts, ActSendNotify) {
		t.Error("responded to NOTIFICATION with NOTIFICATION")
	}
}

func TestMalformedUpdateSendsNotification(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	err := &wire.NotifyError{Code: wire.ErrCodeUpdate, Subcode: wire.ErrSubMalformedAttrList, Reason: "test"}
	acts := f.Handle(Event{Type: EvMsgError, Err: err})
	if f.State() != Idle {
		t.Fatalf("state = %v", f.State())
	}
	n := f.LastNotificationSent()
	if n == nil || n.Code != wire.ErrCodeUpdate || n.Subcode != wire.ErrSubMalformedAttrList {
		t.Fatalf("notification = %+v", n)
	}
	if !hasAction(acts, ActStopped) {
		t.Error("leaving Established must emit ActStopped")
	}
}

func TestManualStopFromEstablished(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	acts := f.Handle(Event{Type: EvManualStop})
	if f.State() != Idle || !hasAction(acts, ActStopped) {
		t.Fatalf("state=%v acts=%v", f.State(), acts)
	}
	if n := f.LastNotificationSent(); n == nil || n.Code != wire.ErrCodeCease {
		t.Fatalf("notification = %+v", n)
	}
}

func TestUnexpectedEventIsFSMError(t *testing.T) {
	f := New(testConfig())
	f.Handle(Event{Type: EvManualStart})
	f.Handle(Event{Type: EvTCPConnEstablished}) // OpenSent
	// An UPDATE before OPEN is an FSM error.
	acts := f.Handle(Event{Type: EvMsgUpdate, Update: &wire.Update{}})
	if f.State() != Idle {
		t.Fatalf("state = %v", f.State())
	}
	if n := f.LastNotificationSent(); n == nil || n.Code != wire.ErrCodeFSM {
		t.Fatalf("notification = %+v", n)
	}
	_ = acts
}

func TestIdleIgnoresStrayEvents(t *testing.T) {
	f := New(testConfig())
	for _, ev := range []EventType{EvMsgKeepalive, EvMsgUpdate, EvHoldTimerExpires, EvTCPConnFails} {
		if acts := f.Handle(Event{Type: ev}); len(acts) != 0 || f.State() != Idle {
			t.Errorf("event %v in Idle: acts=%v state=%v", ev, acts, f.State())
		}
	}
}

func TestTransitionsCounter(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	if f.Transitions() != 4 {
		t.Errorf("transitions = %d, want 4", f.Transitions())
	}
}

func TestStateAndEventStrings(t *testing.T) {
	for s := Idle; s <= Established; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty name", s)
		}
	}
	if State(42).String() == "" || EventType(42).String() == "" {
		t.Error("out-of-range names empty")
	}
	for e := EvManualStart; e <= EvMsgError; e++ {
		if e.String() == "" {
			t.Errorf("event %d has empty name", e)
		}
	}
}

func TestRestartAfterTeardown(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	f.Handle(Event{Type: EvHoldTimerExpires})
	if f.State() != Idle {
		t.Fatal("not idle after teardown")
	}
	// The same FSM can run a second session.
	driveToEstablished(t, f)
}

func TestRouteRefreshDelivered(t *testing.T) {
	f := New(testConfig())
	driveToEstablished(t, f)
	rr := wire.IPv4UnicastRefresh()
	acts := f.Handle(Event{Type: EvMsgRouteRefresh, Refresh: &rr})
	found := false
	for _, a := range acts {
		if a.Type == ActDeliverRefresh && a.Refresh != nil && a.Refresh.AFI == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("refresh not delivered: %v", acts)
	}
	if !hasAction(acts, ActStartHold) {
		t.Error("refresh should restart the hold timer")
	}
	if f.State() != Established {
		t.Errorf("state = %v", f.State())
	}
	// Refresh with a nil payload is an FSM error.
	f2 := New(testConfig())
	driveToEstablished(t, f2)
	f2.Handle(Event{Type: EvMsgRouteRefresh})
	if f2.State() != Idle {
		t.Errorf("nil refresh should reset: state %v", f2.State())
	}
	// Refresh before Established is an FSM error.
	f3 := New(testConfig())
	f3.Handle(Event{Type: EvManualStart})
	f3.Handle(Event{Type: EvTCPConnEstablished})
	f3.Handle(Event{Type: EvMsgRouteRefresh, Refresh: &rr})
	if f3.State() != Idle {
		t.Errorf("early refresh should reset: state %v", f3.State())
	}
}

// TestEventMatrixNeverPanics drives every event type through every state
// (reached via representative prefixes of the handshake) and checks the
// machine always lands in a defined state.
func TestEventMatrixNeverPanics(t *testing.T) {
	rr := wire.IPv4UnicastRefresh()
	buildTo := map[State]func(*FSM){
		Idle:    func(*FSM) {},
		Connect: func(f *FSM) { f.Handle(Event{Type: EvManualStart}) },
		Active: func(f *FSM) {
			f.Handle(Event{Type: EvManualStart})
			f.Handle(Event{Type: EvTCPConnFails})
		},
		OpenSent: func(f *FSM) {
			f.Handle(Event{Type: EvManualStart})
			f.Handle(Event{Type: EvTCPConnEstablished})
		},
		OpenConfirm: func(f *FSM) {
			f.Handle(Event{Type: EvManualStart})
			f.Handle(Event{Type: EvTCPConnEstablished})
			f.Handle(Event{Type: EvMsgOpen, Open: peerOpen(65002, 90)})
		},
		Established: func(f *FSM) { driveToEstablished(t, f) },
	}
	events := []Event{
		{Type: EvManualStart},
		{Type: EvManualStop},
		{Type: EvTCPConnEstablished},
		{Type: EvTCPConnFails},
		{Type: EvConnectRetryExpires},
		{Type: EvHoldTimerExpires},
		{Type: EvKeepaliveTimerExpires},
		{Type: EvMsgOpen, Open: peerOpen(65002, 90)},
		{Type: EvMsgOpen}, // nil payload
		{Type: EvMsgKeepalive},
		{Type: EvMsgUpdate, Update: &wire.Update{}},
		{Type: EvMsgUpdate}, // nil payload
		{Type: EvMsgNotification, Notif: &wire.Notification{Code: 6}},
		{Type: EvMsgError, Err: &wire.NotifyError{Code: 3, Subcode: 1}},
		{Type: EvMsgRouteRefresh, Refresh: &rr},
		{Type: EvMsgRouteRefresh}, // nil payload
		{Type: EventType(99)},     // unknown event
	}
	for state, build := range buildTo {
		for _, ev := range events {
			f := New(testConfig())
			build(f)
			if got := f.State(); got != state {
				t.Fatalf("setup for %v reached %v", state, got)
			}
			f.Handle(ev) // must not panic
			if s := f.State(); s < Idle || s > Established {
				t.Fatalf("state %v after %v in %v is out of range", s, ev.Type, state)
			}
		}
	}
}
