package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// testSpeaker is a minimal in-package benchmark speaker used by the router
// tests (the full speaker package lives above core in the import graph).
type testSpeaker struct {
	sess        *session.Session
	localID     netaddr.Addr
	established chan struct{}

	prefixesIn  atomic.Uint64
	withdrawsIn atomic.Uint64

	mu           sync.Mutex
	sampleUpdate wire.Update
}

func (s *testSpeaker) Established(*session.Session) {
	select {
	case s.established <- struct{}{}:
	default:
	}
}

func (s *testSpeaker) Update(_ *session.Session, u wire.Update) {
	s.prefixesIn.Add(uint64(len(u.NLRI)))
	s.withdrawsIn.Add(uint64(len(u.Withdrawn)))
	if len(u.NLRI) > 0 {
		s.mu.Lock()
		s.sampleUpdate = u
		s.mu.Unlock()
	}
}

func (s *testSpeaker) Down(*session.Session, error) {}

func (s *testSpeaker) stop() { s.sess.Stop() }

func (s *testSpeaker) announce(t *testing.T, routes []Route, perMsg int) {
	t.Helper()
	for _, u := range Updates(routes, s.localID, perMsg) {
		if err := s.sess.Send(u); err != nil {
			t.Fatalf("announce: %v", err)
		}
	}
}

func (s *testSpeaker) withdraw(t *testing.T, routes []Route, perMsg int) {
	t.Helper()
	for _, u := range Withdrawals(routes, perMsg) {
		if err := s.sess.Send(u); err != nil {
			t.Fatalf("withdraw: %v", err)
		}
	}
}

// recorder is a socket-free outbound target for a peer: it keeps what
// the shard workers send it, in order — a wire.Message from Send, the
// shared bytes from SendShared.
type recorder struct {
	mu   sync.Mutex
	sent []any
}

func (rc *recorder) Send(m wire.Message) error { return rc.add(m) }

func (rc *recorder) SendShared(update []byte) error { return rc.add(update) }

func (rc *recorder) add(it any) error {
	rc.mu.Lock()
	rc.sent = append(rc.sent, it)
	rc.mu.Unlock()
	return nil
}

// take returns what ps's recorder holds and empties it.
func take(ps *peerState) []any {
	rc := ps.out.(*recorder)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	sent := rc.sent
	rc.sent = nil
	return sent
}

func mustStartRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

func tryDialSpeaker(r *Router, as uint32, id string) (*testSpeaker, error) {
	sp := &testSpeaker{established: make(chan struct{}, 1)}
	sp.localID = netaddr.MustParseAddr(id)
	sp.sess = session.New(session.Config{
		FSM: fsm.Config{
			LocalAS:  as,
			LocalID:  sp.localID,
			HoldTime: 90,
		},
		DialTarget: r.ListenAddr(),
		Handler:    sp,
		Name:       "test-speaker",
	})
	sp.sess.Start()
	select {
	case <-sp.established:
		return sp, nil
	case <-time.After(5 * time.Second):
		sp.sess.Stop()
		return nil, errTimeout
	}
}

func dialSpeaker(t *testing.T, r *Router, as uint32, id string) *testSpeaker {
	t.Helper()
	sp, err := tryDialSpeaker(r, as, id)
	if err != nil {
		t.Fatalf("speaker as%d: %v", as, err)
	}
	return sp
}

var errTimeout = timeoutError{}

type timeoutError struct{}

func (timeoutError) Error() string { return "timeout waiting for session" }

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
