package session

import "time"

// holdTimer is the session's hold timer (RFC 4271 section 10), owned by
// the event loop like every other piece of session state. Hearing from
// the peer only moves deadline; the one long-lived timer stays scheduled
// at fireAt, never after the deadline. When it fires early the loop
// re-arms it for the time remaining, so the timer is Reset about once
// per hold time instead of once per message, and sooner only when a new
// deadline falls before the scheduled fire (the move from the pre-OPEN
// bound to the negotiated hold time).
type holdTimer struct {
	deadline time.Time        // when the peer must be heard from by; zero while stopped
	fireAt   time.Time        // when t is scheduled to fire
	t        *time.Timer      // created on first use, then only Reset
	c        <-chan time.Time // t.C while scheduled, nil otherwise: the loop selects on it
}

// set moves the deadline to d after now.
func (h *holdTimer) set(now time.Time, d time.Duration) {
	h.deadline = now.Add(d)
	if h.c != nil && !h.deadline.Before(h.fireAt) {
		return // the scheduled fire re-arms for the rest
	}
	h.arm(d)
}

// arm schedules the timer to fire at the deadline, d from now.
func (h *holdTimer) arm(d time.Duration) {
	h.fireAt = h.deadline
	if h.t == nil {
		h.t = time.NewTimer(d)
	} else {
		h.t.Reset(d)
	}
	h.c = h.t.C
}

// stop disarms the timer until the next set.
func (h *holdTimer) stop() {
	h.deadline, h.c = time.Time{}, nil
	if h.t != nil {
		h.t.Stop()
	}
}

// fired handles a receive from c: it reports whether the deadline has
// passed, and otherwise re-arms the timer for the time remaining. A stale
// fire (one left over from before a stop) is an early fire like any other.
func (h *holdTimer) fired(now time.Time) bool {
	h.c = nil
	if left := h.deadline.Sub(now); left > 0 {
		h.arm(left)
		return false
	}
	return true
}
