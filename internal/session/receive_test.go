package session

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// rawEstablished runs a passive session with handler h and the given
// hold time against a raw TCP peer (AS 65001, 2-octet encoding), drives
// the OPEN/KEEPALIVE exchange by hand and waits until Established fired.
// The peer is left to write whatever the test wants.
func rawEstablished(t *testing.T, hold uint16, h Handler, up <-chan struct{}) (*Session, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := New(Config{
		FSM: fsm.Config{
			LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
			HoldTime: hold, PeerAS: 65001, Passive: true,
		},
		Handler:         h,
		Name:            "receiver",
		BatchMaxUpdates: 256,
	})
	s.Start()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(conn)
	w := wire.NewWriter(raw)
	if err := w.WriteMessage(wire.NewOpen(65001, hold, netaddr.MustParseAddr("1.1.1.1"))); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMessage(wire.Keepalive{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-up:
	case <-time.After(5 * time.Second):
		t.Fatal("session did not establish")
	}
	return s, raw
}

// orderLog records handler callbacks in the order the session made them.
type orderLog struct {
	NopHandler
	up   chan struct{}
	down chan error
	mu   sync.Mutex
	log  []string
}

func newOrderLog() *orderLog {
	return &orderLog{up: make(chan struct{}, 1), down: make(chan error, 1)}
}

func (l *orderLog) Established(*Session) { l.up <- struct{}{} }

func (l *orderLog) Update(_ *Session, u wire.Update) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range u.NLRI {
		l.log = append(l.log, p.String())
	}
}

func (l *orderLog) Down(_ *Session, err error) {
	l.mu.Lock()
	l.log = append(l.log, "down")
	l.mu.Unlock()
	l.down <- err
}

// batchOrderLog is an orderLog that takes batches.
type batchOrderLog struct{ *orderLog }

func (l batchOrderLog) UpdateBatch(s *Session, us []wire.Update) {
	for _, u := range us {
		l.Update(s, u)
	}
}

// burstPrefix is the NLRI of the i-th UPDATE in a test burst.
func burstPrefix(i int) netaddr.Prefix {
	return netaddr.PrefixFrom(netaddr.AddrFrom4(10, byte(i>>8), byte(i), 0), 24)
}

// appendBurstUpdate appends the i-th 1-prefix UPDATE of a burst, framed
// in 2-octet encoding.
func appendBurstUpdate(t *testing.T, dst []byte, i int) []byte {
	t.Helper()
	u := wire.Update{
		Attrs: wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 100), netaddr.MustParseAddr("10.0.0.1")),
		NLRI:  []netaddr.Prefix{burstPrefix(i)},
	}
	b, err := wire.AppendMessageMode(dst, u, false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBurstEndsAtNotification: one buffered burst holds UPDATEs, then a
// NOTIFICATION, then more UPDATEs. The handler sees exactly the UPDATEs
// before the NOTIFICATION, in order, then Down, and nothing after it —
// batched or not.
func TestBurstEndsAtNotification(t *testing.T) {
	const before, after = 100, 100
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			l := newOrderLog()
			var h Handler = l
			if batched {
				h = batchOrderLog{l}
			}
			s, raw := rawEstablished(t, 90, h, l.up)
			defer s.Stop()
			defer raw.Close()

			var burst []byte
			var want []string
			for i := 0; i < before; i++ {
				burst = appendBurstUpdate(t, burst, i)
				want = append(want, burstPrefix(i).String())
			}
			n, err := wire.AppendMessageMode(burst, wire.Notification{Code: wire.ErrCodeCease}, false)
			if err != nil {
				t.Fatal(err)
			}
			burst = n
			for i := before; i < before+after; i++ {
				burst = appendBurstUpdate(t, burst, i)
			}
			want = append(want, "down")
			if _, err := raw.Write(burst); err != nil {
				t.Fatal(err)
			}
			select {
			case <-l.down:
			case <-time.After(5 * time.Second):
				t.Fatal("session never went down on the NOTIFICATION")
			}
			// Anything delivered after Down would land in the log now.
			time.Sleep(50 * time.Millisecond)
			l.mu.Lock()
			got := append([]string(nil), l.log...)
			l.mu.Unlock()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("handler saw %d events %v\nwant %d: the %d UPDATEs before the NOTIFICATION, then down", len(got), got, len(want), before)
			}
		})
	}
}

// TestHoldTimerKeptByUpdates: with a 3 s hold time, a peer that sends
// nothing but an UPDATE every 500 ms for 8 s keeps the session up, each
// UPDATE moving the hold deadline. When the peer then goes silent, the
// session goes down on the hold timer within the hold time plus 1 s.
func TestHoldTimerKeptByUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out 8 s of UPDATEs and a 3 s hold time")
	}
	const hold = 3
	l := newOrderLog()
	s, raw := rawEstablished(t, hold, batchOrderLog{l}, l.up)
	defer s.Stop()
	defer raw.Close()

	const sends = 16 // one every 500 ms for 8 s
	var last time.Time
	for i := 0; i < sends; i++ {
		time.Sleep(500 * time.Millisecond)
		if _, err := raw.Write(appendBurstUpdate(t, nil, i)); err != nil {
			t.Fatal(err)
		}
		last = time.Now()
		select {
		case err := <-l.down:
			t.Fatalf("session went down after %d UPDATEs 500 ms apart: %v", i+1, err)
		default:
		}
	}
	if !s.Established() {
		t.Fatal("session not established after 8 s of UPDATEs")
	}
	select {
	case err := <-l.down:
		if d := time.Since(last); d > (hold+1)*time.Second {
			t.Fatalf("went down %v after the last UPDATE, want within %ds", d, hold+1)
		}
		var ne *wire.NotifyError
		if !errors.As(err, &ne) || ne.Code != wire.ErrCodeHoldTimer {
			t.Fatalf("Down(%v), want the hold-timer NOTIFICATION", err)
		}
	case <-time.After((hold + 2) * time.Second):
		t.Fatal("session toward a silent peer never went down")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.log); n != sends+1 {
		t.Fatalf("handler saw %d events, want %d UPDATEs then down", n, sends)
	}
}

// nextFire waits up to limit for ts to fire and feeds the fire to ts as
// the event loop does, returning whether it fired and the deadlines it
// expired, in the order it handed them over.
func nextFire(ts *timers, limit time.Duration) (fired bool, expired []deadline) {
	select {
	case <-ts.c:
		ts.fired(time.Now(), func(k deadline) bool {
			expired = append(expired, k)
			return false
		})
		return true, expired
	case <-time.After(limit):
		return false, nil
	}
}

// TestHoldTimerDeadlines drives the hold deadline the way the event loop
// does: moving the deadline allocates nothing and leaves a sooner fire
// scheduled where it was; a fire before the deadline re-arms for the
// rest; a deadline before the scheduled fire re-arms it sooner; stop
// disarms it, and a fire left over from before a stop only re-arms.
func TestHoldTimerDeadlines(t *testing.T) {
	var ts timers
	defer ts.disarm()
	next := func(limit time.Duration) (fired, expired bool) {
		fired, exp := nextFire(&ts, limit)
		return fired, fmt.Sprint(exp) == fmt.Sprint([]deadline{holdDeadline})
	}

	ts.set(holdDeadline, time.Now(), time.Hour)
	at := ts.fireAt
	if got := testing.AllocsPerRun(100, func() { ts.set(holdDeadline, time.Now(), time.Hour) }); got != 0 {
		t.Errorf("moving the hold deadline allocated %v times, want 0", got)
	}
	if !ts.fireAt.Equal(at) {
		t.Errorf("a later deadline moved the scheduled fire from %v to %v", at, ts.fireAt)
	}

	// Sooner: a 100 ms deadline replaces the hour-long one.
	start := time.Now()
	ts.set(holdDeadline, start, 100*time.Millisecond)
	if fired, expired := next(2 * time.Second); !fired || !expired {
		t.Fatal("a deadline before the scheduled fire did not re-arm the timer")
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > time.Second {
		t.Fatalf("expired after %v, want about 100ms", d)
	}

	// Later: keep moving a 100 ms deadline for 400 ms; the fires due in
	// between re-arm instead of expiring.
	ts.set(holdDeadline, time.Now(), 100*time.Millisecond)
	start = time.Now()
	early := 0
	for time.Since(start) < 400*time.Millisecond {
		if fired, expired := next(20 * time.Millisecond); expired {
			t.Fatalf("expired %v in while the deadline kept moving", time.Since(start))
		} else if fired {
			early++
		}
		ts.set(holdDeadline, time.Now(), 100*time.Millisecond)
	}
	if early == 0 {
		t.Error("the scheduled fire never came while the deadline kept moving")
	}
	last := time.Now()
	for {
		fired, expired := next(2 * time.Second)
		if !fired {
			t.Fatal("timer never expired once the deadline stopped moving")
		}
		if expired {
			break
		}
	}
	if d := time.Since(last); d > time.Second {
		t.Fatalf("expired %v after the last move, want about 100ms", d)
	}

	// Stop, then let the stopped fire come due: a later set must not
	// expire on it.
	ts.set(holdDeadline, time.Now(), 50*time.Millisecond)
	ts.stop(holdDeadline)
	if ts.c != nil {
		t.Fatal("stop left the timer selectable")
	}
	time.Sleep(100 * time.Millisecond)
	ts.set(holdDeadline, time.Now(), time.Hour)
	if _, expired := next(200 * time.Millisecond); expired {
		t.Fatal("a fire from before the stop expired the new deadline")
	}
}

// TestTimersTwoDeadlines: two deadlines share the one timer. The earlier
// one fires first and alone, the later one stays set and fires at its
// own time; stopping one leaves the other armed, whichever of them the
// timer was scheduled for; deadlines that pass together are handed over
// hold first; and stopping the last one disarms the timer.
func TestTimersTwoDeadlines(t *testing.T) {
	var ts timers
	defer ts.disarm()

	start := time.Now()
	ts.set(keepaliveDeadline, start, 300*time.Millisecond)
	ts.set(holdDeadline, start, 100*time.Millisecond)
	fired, got := nextFire(&ts, 2*time.Second)
	if !fired || fmt.Sprint(got) != fmt.Sprint([]deadline{holdDeadline}) {
		t.Fatalf("first fire expired %v, want the hold deadline alone", got)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d >= 300*time.Millisecond {
		t.Fatalf("the earlier deadline expired after %v, want about 100ms", d)
	}
	if ts.c == nil || !ts.at[holdDeadline].IsZero() || ts.at[keepaliveDeadline].IsZero() {
		t.Fatal("the later deadline was not left armed after the earlier one expired")
	}
	fired, got = nextFire(&ts, 2*time.Second)
	if !fired || fmt.Sprint(got) != fmt.Sprint([]deadline{keepaliveDeadline}) {
		t.Fatalf("second fire expired %v, want the keepalive deadline", got)
	}
	if d := time.Since(start); d < 300*time.Millisecond || d > 1300*time.Millisecond {
		t.Fatalf("the later deadline expired after %v, want about 300ms", d)
	}
	if ts.c != nil {
		t.Fatal("the timer stayed selectable with no deadline set")
	}

	// Stopping the deadline the timer is scheduled for leaves the other
	// one armed: the early fire re-arms for it.
	start = time.Now()
	ts.set(retryDeadline, start, 200*time.Millisecond)
	ts.set(holdDeadline, start, 50*time.Millisecond)
	ts.stop(holdDeadline)
	if ts.c == nil {
		t.Fatal("stopping one deadline disarmed the other")
	}
	for {
		fired, got := nextFire(&ts, 2*time.Second)
		if !fired {
			t.Fatal("the remaining deadline never expired")
		}
		if len(got) > 0 {
			if fmt.Sprint(got) != fmt.Sprint([]deadline{retryDeadline}) {
				t.Fatalf("expired %v, want the connect-retry deadline", got)
			}
			break
		}
	}
	if d := time.Since(start); d < 200*time.Millisecond || d > 1200*time.Millisecond {
		t.Fatalf("the remaining deadline expired after %v, want about 200ms", d)
	}

	// Stopping the later deadline leaves the earlier one armed.
	start = time.Now()
	ts.set(holdDeadline, start, 50*time.Millisecond)
	ts.set(keepaliveDeadline, start, time.Hour)
	ts.stop(keepaliveDeadline)
	if fired, got := nextFire(&ts, 2*time.Second); !fired || fmt.Sprint(got) != fmt.Sprint([]deadline{holdDeadline}) {
		t.Fatalf("expired %v, want the hold deadline", got)
	}

	// Deadlines that passed together are handed over in deadline order.
	now := time.Now()
	ts.set(retryDeadline, now, 10*time.Millisecond)
	ts.set(keepaliveDeadline, now, 20*time.Millisecond)
	ts.set(holdDeadline, now, 30*time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	want := []deadline{holdDeadline, keepaliveDeadline, retryDeadline}
	if fired, got := nextFire(&ts, 2*time.Second); !fired || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("expired %v, want %v", got, want)
	}
}
