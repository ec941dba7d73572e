// Package speaker implements the benchmark's BGP speakers (Figure 1 of
// the paper): Speaker 1 injects routing tables and incremental updates
// into the router under test; Speaker 2 receives the router's
// advertisements and detects convergence. Speakers are full BGP sessions
// built on internal/session; they talk to any RFC 4271 router, not only
// the one in this repository.
package speaker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// Config parameterizes a speaker.
type Config struct {
	AS      uint32
	ID      netaddr.Addr
	NextHop netaddr.Addr // NEXT_HOP advertised with IPv4 routes; defaults to ID
	// NextHop6 is the next hop advertised with IPv6 routes (it travels
	// inside MP_REACH_NLRI); defaults to the IPv4-mapped form of NextHop.
	NextHop6 netaddr.Addr
	Target   string // router under test, "host:port"
	HoldTime uint16 // default 90
	Name     string
	// Dial, when non-nil, replaces net.DialTimeout for connection
	// attempts; the netem fault injector hooks in here.
	Dial func(network, address string, timeout time.Duration) (net.Conn, error)
	// Reconnect makes the speaker survive session flaps: every sent
	// UPDATE is journaled, and when the session goes down a fresh one is
	// dialed and the whole journal replayed. Replay is idempotent — the
	// router's final state per prefix depends only on the last message —
	// so a speaker that flaps mid-table still converges to the state a
	// clean run reaches.
	Reconnect bool
}

// maxReconnects bounds a reconnecting speaker's attempts.
const maxReconnects = 8

// Speaker is one benchmark BGP speaker.
type Speaker struct {
	cfg Config

	// mu guards sess/journal/closed/replaying and serializes sends with
	// journal replay, so replayed and fresh UPDATEs never interleave.
	mu      sync.Mutex
	sess    *session.Session
	journal []wire.Update
	closed  bool
	// replaying: sess awaits the journal, so fresh UPDATEs join it only.
	replaying bool

	stopCh      chan struct{}
	established chan struct{}
	down        chan error
	retries     atomic.Uint64

	prefixesIn  atomic.Uint64
	withdrawsIn atomic.Uint64
	updatesIn   atomic.Uint64
}

// New builds a speaker; Connect starts it.
func New(cfg Config) *Speaker {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90
	}
	if cfg.NextHop.IsZero() {
		cfg.NextHop = cfg.ID
	}
	if cfg.NextHop6.IsZero() {
		//bgplint:allow(afifamily) reason=mapping a v4 next hop into ::ffff:0:0/96 is the point
		cfg.NextHop6 = netaddr.AddrFrom128(0, uint64(0xffff)<<32|uint64(cfg.NextHop.V4()))
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("speaker-as%d", cfg.AS)
	}
	s := &Speaker{
		cfg:         cfg,
		stopCh:      make(chan struct{}),
		established: make(chan struct{}, 1),
		down:        make(chan error, 1),
	}
	s.sess = s.newSession()
	return s
}

// newSession builds a fresh session from the speaker's configuration.
func (s *Speaker) newSession() *session.Session {
	return session.New(session.Config{
		FSM: fsm.Config{
			LocalAS:  s.cfg.AS,
			LocalID:  s.cfg.ID,
			HoldTime: s.cfg.HoldTime,
		},
		DialTarget: s.cfg.Target,
		Dial:       s.cfg.Dial,
		Handler:    (*speakerHandler)(s),
		Name:       s.cfg.Name,
	})
}

// speakerHandler keeps Handler methods off the Speaker's public API.
type speakerHandler Speaker

// Established implements session.Handler.
func (h *speakerHandler) Established(*session.Session) {
	select {
	case h.established <- struct{}{}:
	default:
	}
}

// Update implements session.Handler.
func (h *speakerHandler) Update(_ *session.Session, u wire.Update) {
	s := (*Speaker)(h)
	s.updatesIn.Add(1)
	s.prefixesIn.Add(uint64(len(u.NLRI)))
	s.withdrawsIn.Add(uint64(len(u.Withdrawn)))
}

// Down implements session.Handler. It runs on the session's event-loop
// goroutine.
func (h *speakerHandler) Down(sess *session.Session, err error) {
	select {
	case h.down <- err:
	default:
	}
	s := (*Speaker)(h)
	if s.cfg.Reconnect {
		go s.reconnect(sess)
	}
}

// reconnect replaces the dead session and replays the journal. The
// session layer itself retries TCP connects, so one fresh session per
// flap suffices; if the replacement flaps too, its Down handler calls
// back in here until maxReconnects is exhausted.
func (s *Speaker) reconnect(dead *session.Session) {
	s.mu.Lock()
	current := s.sess == dead && !s.closed
	s.mu.Unlock()
	if !current {
		return
	}
	if s.retries.Add(1) > maxReconnects {
		return
	}
	select {
	case <-s.stopCh:
		return
	default:
	}
	// Drain stale signals from the dead session before starting a new
	// one, so the waits below see only the replacement's.
	for {
		select {
		case <-s.established:
			continue
		case <-s.down:
			continue
		default:
		}
		break
	}
	ns := s.newSession()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.sess = ns
	s.replaying = true
	s.mu.Unlock()
	ns.Start()
	select {
	case <-s.established:
	case <-s.stopCh:
		ns.Stop()
		return
	case <-time.After(30 * time.Second):
		ns.Stop()
		return
	}
	// Replay the full journal under the send lock. Fresh Announce or
	// Withdraw calls made since the swap are in the journal too, so
	// per-prefix message order is preserved.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess != ns || s.closed {
		return
	}
	for _, u := range s.journal {
		if err := ns.Send(u); err != nil {
			// The replacement died mid-replay; its Down handler owns the
			// next attempt.
			return
		}
	}
	s.replaying = false
}

// Connect starts the session and blocks until it establishes or the
// timeout elapses.
func (s *Speaker) Connect(timeout time.Duration) error {
	s.mu.Lock()
	sess := s.sess
	s.mu.Unlock()
	sess.Start()
	select {
	case <-s.established:
		return nil
	case err := <-s.down:
		return fmt.Errorf("speaker %s: session down during connect: %w", s.cfg.Name, err)
	case <-time.After(timeout):
		return fmt.Errorf("speaker %s: no session after %v", s.cfg.Name, timeout)
	}
}

// Stop tears the session down and disables reconnection.
func (s *Speaker) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopCh)
	sess := s.sess
	s.mu.Unlock()
	sess.Stop()
}

// Established reports whether the current session is established.
func (s *Speaker) Established() bool {
	s.mu.Lock()
	sess := s.sess
	s.mu.Unlock()
	return sess.Established()
}

// Retries returns how many reconnection attempts the speaker has made.
func (s *Speaker) Retries() uint64 { return s.retries.Load() }

// sendAll journals (when reconnecting) and transmits a batch of UPDATEs
// under the send lock. With Reconnect enabled, transport errors are
// swallowed: the messages are in the journal and the replacement session
// replays them.
func (s *Speaker) sendAll(msgs []wire.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Reconnect {
		s.journal = append(s.journal, msgs...)
		if s.replaying {
			return nil
		}
	}
	for _, u := range msgs {
		if err := s.sess.Send(u); err != nil {
			if s.cfg.Reconnect {
				return nil
			}
			return err
		}
	}
	return nil
}

// Announce sends the routes as announcements packed prefixesPerMsg per
// UPDATE (1 = the paper's small packets, 500 = large packets). Mixed
// tables are split by address family so each family travels with its own
// next hop: NextHop for IPv4 NLRI, NextHop6 inside MP_REACH_NLRI.
func (s *Speaker) Announce(routes []core.Route, prefixesPerMsg int) error {
	var v4, v6 []core.Route
	for _, r := range routes {
		if r.Prefix.Addr().Is6() {
			v6 = append(v6, r)
		} else {
			v4 = append(v4, r)
		}
	}
	var msgs []wire.Update
	if len(v4) > 0 {
		msgs = append(msgs, core.Updates(v4, s.cfg.NextHop, prefixesPerMsg)...)
	}
	if len(v6) > 0 {
		msgs = append(msgs, core.Updates(v6, s.cfg.NextHop6, prefixesPerMsg)...)
	}
	return s.sendAll(msgs)
}

// Withdraw sends withdrawals for the routes, packed prefixesPerMsg per
// UPDATE.
func (s *Speaker) Withdraw(routes []core.Route, prefixesPerMsg int) error {
	return s.sendAll(core.Withdrawals(routes, prefixesPerMsg))
}

// RequestRefresh asks the router to re-send its full Adj-RIB-Out
// (RFC 2918 ROUTE-REFRESH).
func (s *Speaker) RequestRefresh() error {
	s.mu.Lock()
	sess := s.sess
	s.mu.Unlock()
	return sess.Send(wire.IPv4UnicastRefresh())
}

// PrefixesReceived returns the number of announced prefixes received.
func (s *Speaker) PrefixesReceived() uint64 { return s.prefixesIn.Load() }

// WithdrawalsReceived returns the number of withdrawn prefixes received.
func (s *Speaker) WithdrawalsReceived() uint64 { return s.withdrawsIn.Load() }

// UpdatesReceived returns the number of UPDATE messages received.
func (s *Speaker) UpdatesReceived() uint64 { return s.updatesIn.Load() }

// WaitForPrefixes blocks until at least n announced prefixes have arrived.
// It is the Phase 2 convergence detector: "the router transfers its route
// information to Speaker 2".
func (s *Speaker) WaitForPrefixes(n uint64, timeout time.Duration) error {
	return s.waitCount(&s.prefixesIn, "prefixes", n, timeout)
}

// WaitForWithdrawals blocks until at least n withdrawn prefixes arrived.
func (s *Speaker) WaitForWithdrawals(n uint64, timeout time.Duration) error {
	return s.waitCount(&s.withdrawsIn, "withdrawals", n, timeout)
}

// waitCount polls c until it reaches n, failing after timeout.
func (s *Speaker) waitCount(c *atomic.Uint64, what string, n uint64, timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); c.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("speaker %s: %d/%d %s after %v", s.cfg.Name, c.Load(), n, what, timeout)
		}
	}
	return nil
}
