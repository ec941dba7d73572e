// Package fsm implements the BGP session finite state machine of RFC 4271
// section 8 as a pure event-to-actions transducer: it owns no sockets and
// no timers. The session layer feeds it events (transport up/down, messages
// received, timer expiries) and executes the actions it returns (send a
// message, start/stop timers, tear down the connection). Keeping the FSM
// pure makes every transition deterministic and directly testable.
package fsm

import (
	"fmt"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// State is a BGP session state (RFC 4271 section 8.2.2).
type State int

// Session states.
const (
	Idle State = iota
	Connect
	Active
	OpenSent
	OpenConfirm
	Established
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "Idle"
	case Connect:
		return "Connect"
	case Active:
		return "Active"
	case OpenSent:
		return "OpenSent"
	case OpenConfirm:
		return "OpenConfirm"
	case Established:
		return "Established"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// EventType identifies an input to the FSM.
type EventType int

// FSM input events (a practical subset of the RFC 4271 section 8.1 list).
const (
	EvManualStart        EventType = iota // operator starts the session
	EvManualStop                          // operator stops the session
	EvTCPConnEstablished                  // outbound connect succeeded or inbound accepted
	EvTCPConnFails                        // transport lost or connect failed
	EvConnectRetryExpires
	EvHoldTimerExpires
	EvKeepaliveTimerExpires
	EvMsgOpen         // OPEN received (Event.Open set)
	EvMsgKeepalive    // KEEPALIVE received
	EvMsgUpdate       // UPDATE received (Event.Update set)
	EvMsgNotification // NOTIFICATION received (Event.Notif set)
	EvMsgError        // message failed to parse (Event.Err set, usually *wire.NotifyError)
	EvMsgRouteRefresh // ROUTE-REFRESH received (Event.Refresh set)
)

// String names the event type.
func (e EventType) String() string {
	names := map[EventType]string{
		EvManualStart: "ManualStart", EvManualStop: "ManualStop",
		EvTCPConnEstablished: "TCPConnEstablished", EvTCPConnFails: "TCPConnFails",
		EvConnectRetryExpires: "ConnectRetryExpires", EvHoldTimerExpires: "HoldTimerExpires",
		EvKeepaliveTimerExpires: "KeepaliveTimerExpires", EvMsgOpen: "MsgOpen",
		EvMsgKeepalive: "MsgKeepalive", EvMsgUpdate: "MsgUpdate",
		EvMsgNotification: "MsgNotification", EvMsgError: "MsgError",
		EvMsgRouteRefresh: "MsgRouteRefresh",
	}
	if n, ok := names[e]; ok {
		return n
	}
	return fmt.Sprintf("EventType(%d)", int(e))
}

// Event is one FSM input.
type Event struct {
	Type    EventType
	Open    *wire.Open
	Update  *wire.Update
	Notif   *wire.Notification
	Refresh *wire.RouteRefresh
	Err     error
}

// ActionType identifies an output of the FSM.
type ActionType int

// FSM output actions, executed by the session layer in order.
const (
	ActConnect       ActionType = iota // initiate the TCP connection
	ActSendOpen                        // send our OPEN
	ActSendKeepalive                   // send a KEEPALIVE
	ActSendNotify                      // send a NOTIFICATION (Action.Notif)
	ActCloseConn                       // close the transport
	ActStartHold                       // (re)start the hold timer with the negotiated time
	ActStopHold
	ActStartKeepalive // (re)start the keepalive interval timer
	ActStopKeepalive
	ActStartConnectRetry
	ActStopConnectRetry
	ActEstablished    // session reached Established (deliver routes now)
	ActStopped        // session left Established / terminated
	ActDeliverUpdate  // pass Action.Update to the routing layer
	ActDeliverRefresh // pass Action.Refresh to the routing layer
)

// Action is one FSM output.
type Action struct {
	Type    ActionType
	Notif   *wire.Notification
	Update  *wire.Update
	Refresh *wire.RouteRefresh
}

// Config is the local side of the session.
type Config struct {
	LocalAS  uint32
	LocalID  netaddr.Addr
	HoldTime uint16 // proposed hold time, seconds (0 disables keepalives)
	// PeerAS, when nonzero, is enforced against the peer's OPEN (the
	// effective AS: the 4-octet capability value when the peer sent one,
	// else the 2-octet OPEN field).
	PeerAS uint32
	// Passive suppresses ActConnect on start: the session waits for an
	// inbound connection (used by routers under test accepting speakers).
	Passive bool
	// Capabilities are advertised in our OPEN's optional parameters
	// (RFC 5492). The session layer encodes them.
	Capabilities []wire.Capability
}

// FSM is the state machine for one peering session.
type FSM struct {
	cfg   Config
	state State

	// Negotiated session parameters, valid from OpenConfirm onward.
	peerOpen          wire.Open
	negotiatedHold    uint16
	transitions       uint64
	lastNotifSent     *wire.Notification
	establishedEvents uint64

	acts []Action // Handle's result, reused across calls
}

// New builds an FSM in the Idle state.
func New(cfg Config) *FSM {
	return &FSM{cfg: cfg, state: Idle}
}

// State returns the current state.
func (f *FSM) State() State { return f.state }

// PeerOpen returns the peer's OPEN message, valid once the state has
// reached OpenConfirm.
func (f *FSM) PeerOpen() wire.Open { return f.peerOpen }

// HoldTime returns the negotiated hold time in seconds (min of both
// sides), valid once the state has reached OpenConfirm. The keepalive
// interval is conventionally a third of it.
func (f *FSM) HoldTime() uint16 { return f.negotiatedHold }

// Transitions returns the number of state changes, for diagnostics.
func (f *FSM) Transitions() uint64 { return f.transitions }

func (f *FSM) to(s State) {
	if s != f.state {
		f.transitions++
	}
	f.state = s
}

// Handle consumes one event and returns the actions the session layer must
// execute, in order. Unexpected events in a state follow the RFC's rule:
// send a NOTIFICATION (FSM error), drop the connection, return to Idle.
// The returned slice is FSM-owned scratch, valid until the next call.
func (f *FSM) Handle(ev Event) []Action {
	clear(f.acts)
	f.acts = f.acts[:0]
	switch f.state {
	case Idle:
		f.inIdle(ev)
	case Connect, Active:
		f.inConnect(ev)
	case OpenSent:
		f.inOpenSent(ev)
	case OpenConfirm:
		f.inOpenConfirm(ev)
	case Established:
		f.inEstablished(ev)
	}
	return f.acts
}

// emit appends payload-free actions to the scratch Handle returns.
func (f *FSM) emit(ts ...ActionType) {
	for _, t := range ts {
		f.acts = append(f.acts, Action{Type: t})
	}
}

func (f *FSM) inIdle(ev Event) {
	// All events but a start are ignored in Idle.
	if ev.Type != EvManualStart {
		return
	}
	if f.cfg.Passive {
		f.to(Active)
		return
	}
	f.to(Connect)
	f.emit(ActConnect, ActStartConnectRetry)
}

// inConnect covers both Connect and Active: waiting for a transport.
func (f *FSM) inConnect(ev Event) {
	switch ev.Type {
	case EvTCPConnEstablished:
		f.to(OpenSent)
		// The hold timer starts large until negotiated.
		f.emit(ActStopConnectRetry, ActSendOpen, ActStartHold)
	case EvTCPConnFails:
		f.to(Active)
		f.emit(ActStartConnectRetry)
	case EvConnectRetryExpires:
		if f.cfg.Passive {
			return
		}
		f.to(Connect)
		f.emit(ActConnect, ActStartConnectRetry)
	case EvManualStop:
		f.to(Idle)
		f.emit(ActStopConnectRetry, ActCloseConn)
	default:
		f.fsmError()
	}
}

func (f *FSM) inOpenSent(ev Event) {
	switch ev.Type {
	case EvMsgOpen:
		if ev.Open == nil {
			f.fsmError()
			return
		}
		if f.cfg.PeerAS != 0 && ev.Open.EffectiveAS() != f.cfg.PeerAS {
			f.notifyAndIdle(wire.ErrCodeOpen, wire.ErrSubBadPeerAS, nil)
			return
		}
		f.peerOpen = *ev.Open
		f.negotiatedHold = f.cfg.HoldTime
		if ev.Open.HoldTime < f.negotiatedHold {
			f.negotiatedHold = ev.Open.HoldTime
		}
		f.to(OpenConfirm)
		f.emit(ActSendKeepalive)
		if f.negotiatedHold > 0 {
			f.emit(ActStartHold, ActStartKeepalive)
		} else {
			f.emit(ActStopHold, ActStopKeepalive)
		}
	case EvMsgError:
		f.notifyFromError(ev.Err)
	case EvMsgNotification:
		f.to(Idle)
		f.emit(ActCloseConn)
	case EvTCPConnFails:
		if f.cfg.Passive {
			// As in OpenConfirm: an acceptor's session ends with its
			// connection. Parked in Active it would wait forever for a
			// transport nobody will hand it.
			f.to(Idle)
			f.emit(ActCloseConn)
			return
		}
		f.to(Active)
		f.emit(ActStartConnectRetry)
	case EvHoldTimerExpires:
		f.notifyAndIdle(wire.ErrCodeHoldTimer, 0, nil)
	case EvManualStop:
		f.cease()
	default:
		f.fsmError()
	}
}

func (f *FSM) inOpenConfirm(ev Event) {
	switch ev.Type {
	case EvMsgKeepalive:
		f.to(Established)
		f.establishedEvents++
		f.emit(ActEstablished)
		if f.negotiatedHold > 0 {
			f.emit(ActStartHold)
		}
	case EvMsgNotification:
		f.to(Idle)
		f.emit(ActCloseConn)
	case EvMsgError:
		f.notifyFromError(ev.Err)
	case EvHoldTimerExpires:
		f.notifyAndIdle(wire.ErrCodeHoldTimer, 0, nil)
	case EvKeepaliveTimerExpires:
		f.emit(ActSendKeepalive, ActStartKeepalive)
	case EvTCPConnFails:
		if f.cfg.Passive {
			// Nothing to re-dial: acceptors run a fresh session per
			// inbound connection.
			f.to(Idle)
			f.emit(ActCloseConn)
			return
		}
		// Recover exactly as OpenSent does. The peer's OPEN can be
		// processed before our own failed OPEN write is, so a transport
		// lost mid-handshake is seen here as often as there; Idle would
		// end the session with no Down reported (it was never up) and
		// nothing left to re-dial.
		f.to(Active)
		f.emit(ActStopHold, ActStopKeepalive, ActStartConnectRetry)
	case EvManualStop:
		f.cease()
	default:
		f.fsmError()
	}
}

func (f *FSM) inEstablished(ev Event) {
	switch ev.Type {
	case EvMsgUpdate:
		if ev.Update == nil {
			f.fsmError()
			return
		}
		f.acts = append(f.acts, Action{Type: ActDeliverUpdate, Update: ev.Update})
		if f.negotiatedHold > 0 {
			f.emit(ActStartHold)
		}
	case EvMsgKeepalive:
		if f.negotiatedHold > 0 {
			f.emit(ActStartHold)
		}
	case EvMsgRouteRefresh:
		if ev.Refresh == nil {
			f.fsmError()
			return
		}
		f.acts = append(f.acts, Action{Type: ActDeliverRefresh, Refresh: ev.Refresh})
		if f.negotiatedHold > 0 {
			f.emit(ActStartHold)
		}
	case EvKeepaliveTimerExpires:
		f.emit(ActSendKeepalive, ActStartKeepalive)
	case EvHoldTimerExpires:
		f.emit(ActStopped)
		f.notifyAndIdle(wire.ErrCodeHoldTimer, 0, nil)
	case EvMsgNotification:
		f.to(Idle)
		f.emit(ActStopped, ActCloseConn)
	case EvMsgError:
		f.emit(ActStopped)
		f.notifyFromError(ev.Err)
	case EvTCPConnFails:
		f.to(Idle)
		f.emit(ActStopped, ActCloseConn)
	case EvManualStop:
		f.emit(ActStopped)
		f.cease()
	default:
		f.emit(ActStopped)
		f.fsmError()
	}
}

// cease sends an administrative-shutdown NOTIFICATION and returns to Idle.
func (f *FSM) cease() {
	f.notifyAndIdle(wire.ErrCodeCease, 0, nil)
}

// fsmError handles an event illegal in the current state.
func (f *FSM) fsmError() {
	f.notifyAndIdle(wire.ErrCodeFSM, 0, nil)
}

// notifyFromError converts a parse failure into the NOTIFICATION the RFC
// prescribes, then tears the session down.
func (f *FSM) notifyFromError(err error) {
	if ne, ok := err.(*wire.NotifyError); ok {
		f.notifyAndIdle(ne.Code, ne.Subcode, ne.Data)
		return
	}
	f.notifyAndIdle(wire.ErrCodeCease, 0, nil)
}

func (f *FSM) notifyAndIdle(code, subcode uint8, data []byte) {
	n := &wire.Notification{Code: code, Subcode: subcode, Data: data}
	f.lastNotifSent = n
	f.to(Idle)
	f.acts = append(f.acts, Action{Type: ActSendNotify, Notif: n})
	f.emit(ActStopHold, ActStopKeepalive, ActStopConnectRetry, ActCloseConn)
}

// LastNotificationSent returns the most recent NOTIFICATION this side
// generated, for diagnostics and tests.
func (f *FSM) LastNotificationSent() *wire.Notification { return f.lastNotifSent }
