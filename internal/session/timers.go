package session

import (
	"time"

	"bgpbench/internal/fsm"
)

// deadline names one of the session's timers (RFC 4271 section 10).
type deadline int

const (
	holdDeadline deadline = iota
	keepaliveDeadline
	retryDeadline
)

// expiry is the FSM event each deadline raises when it passes.
// Deadlines that have passed together are handled in this order.
var expiry = [...]fsm.EventType{
	holdDeadline:      fsm.EvHoldTimerExpires,
	keepaliveDeadline: fsm.EvKeepaliveTimerExpires,
	retryDeadline:     fsm.EvConnectRetryExpires,
}

// timers holds the session's hold, keepalive and connect-retry deadlines
// behind one time.Timer, owned by the event loop like every other piece
// of session state. Setting a deadline only records it; the timer stays
// scheduled at fireAt, never after the earliest deadline. When it fires
// early the loop re-arms it for the earliest deadline left, so hearing
// from the peer Resets it about once per hold time instead of once per
// message, and sooner only when a new deadline falls before the scheduled
// fire (the move from the pre-OPEN bound to the negotiated hold time, a
// keepalive due before the hold deadline). The timer reaches nothing but
// its channel: a session that has ended is not kept alive by it.
type timers struct {
	at     [len(expiry)]time.Time // zero while stopped
	fireAt time.Time              // when t is scheduled to fire
	t      *time.Timer            // created on first use, then only Reset
	c      <-chan time.Time       // t.C while scheduled, nil otherwise: the loop selects on it
}

// set moves deadline k to d after now.
func (ts *timers) set(k deadline, now time.Time, d time.Duration) {
	ts.at[k] = now.Add(d)
	if ts.c == nil || ts.at[k].Before(ts.fireAt) {
		ts.arm(now) // else the scheduled fire re-arms for the rest
	}
}

// stop clears deadline k, and stops the timer once no deadline is left.
// A fire due for k while another deadline is set only re-arms.
func (ts *timers) stop(k deadline) {
	ts.at[k] = time.Time{}
	if ts.at == [len(expiry)]time.Time{} {
		ts.disarm()
	}
}

// disarm stops the timer until the next set.
func (ts *timers) disarm() {
	ts.c = nil
	if ts.t != nil {
		ts.t.Stop()
	}
}

// fired handles a receive from c: every deadline that has passed by now
// is cleared and handed to expire, in expiry order, until expire reports
// the session finished; each is read afresh, since handling one may stop
// the next. The timer is then re-armed for the earliest deadline left
// unless expire's own actions already did. A stale fire (one left over
// from before a stop) is an early fire like any other.
func (ts *timers) fired(now time.Time, expire func(deadline) bool) bool {
	ts.c = nil
	for k, at := range &ts.at {
		if !at.IsZero() && !now.Before(at) {
			ts.at[k] = time.Time{}
			if expire(deadline(k)) {
				return true
			}
		}
	}
	if ts.c == nil {
		ts.arm(now)
	}
	return false
}

// arm schedules the timer for the earliest deadline, or disarms it when
// none is set.
func (ts *timers) arm(now time.Time) {
	ts.fireAt = time.Time{}
	for _, at := range ts.at {
		if !at.IsZero() && (ts.fireAt.IsZero() || at.Before(ts.fireAt)) {
			ts.fireAt = at
		}
	}
	switch {
	case ts.fireAt.IsZero():
		ts.disarm()
		return
	case ts.t == nil:
		ts.t = time.NewTimer(ts.fireAt.Sub(now))
	default:
		ts.t.Reset(ts.fireAt.Sub(now))
	}
	ts.c = ts.t.C
}
