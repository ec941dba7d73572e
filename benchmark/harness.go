package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// phaseDeadline bounds how long a phase may take to be confirmed after its
// last UPDATE was queued. Phases take about a second; a phase that misses
// this has lost prefixes, which is what fail counts.
const phaseDeadline = 20 * time.Second

// observer is what the receiver's handler does with the UPDATEs of one
// phase. It is owned by the receiver session's event loop from the moment
// it is stored until done fires (or the deadline passes and it is
// replaced).
type observer struct {
	want     int  // prefixes that end the phase
	withdraw bool // count Withdrawn instead of NLRI
	got      atomic.Int64
	done     chan time.Time // buffered; receives the completion instant

	// Open loop: due[i] is when prefix i of the stream was due, as an
	// offset from start; lat collects now-due per prefix seen, in ms.
	position map[netaddr.Prefix]int32
	due      []time.Duration
	start    time.Time
	lat      []float64

	// Verification: the attributes last seen per prefix.
	held map[netaddr.Prefix][]byte
}

// peer is one of the benchmark's two BGP sessions with its handler.
type peer struct {
	sess *session.Session
	up   chan struct{}
	down chan error
	obs  atomic.Pointer[observer]
}

func newPeer(name string, as uint32, id netaddr.Addr, target string) *peer {
	p := &peer{up: make(chan struct{}, 1), down: make(chan error, 1)}
	p.sess = session.New(session.Config{
		FSM:        fsm.Config{LocalAS: as, LocalID: id, HoldTime: 90},
		DialTarget: target,
		Handler:    p,
		Name:       name,
	})
	return p
}

// Established implements session.Handler.
func (p *peer) Established(*session.Session) {
	select {
	case p.up <- struct{}{}:
	default:
	}
}

// Down implements session.Handler.
func (p *peer) Down(_ *session.Session, err error) {
	select {
	case p.down <- err:
	default:
	}
}

// Update implements session.Handler: the completion event of receiver-side
// phases and the latency probe of the open loop.
func (p *peer) Update(_ *session.Session, u wire.Update) {
	o := p.obs.Load()
	if o == nil {
		return
	}
	seen := u.NLRI
	if o.withdraw {
		seen = u.Withdrawn
	}
	if o.due != nil {
		since := time.Since(o.start)
		for _, pfx := range seen {
			o.lat = append(o.lat, float64(since-o.due[o.position[pfx]])/float64(time.Millisecond))
		}
	}
	if o.held != nil {
		for _, pfx := range u.Withdrawn {
			delete(o.held, pfx)
		}
		if len(u.NLRI) > 0 {
			attrs := wire.MarshalAttrs(u.Attrs)
			for _, pfx := range u.NLRI {
				o.held[pfx] = attrs
			}
		}
	}
	// Exactly one UPDATE takes the count across want.
	if got := int(o.got.Add(int64(len(seen)))); got >= o.want && got-len(seen) < o.want {
		o.done <- time.Now()
	}
}

func (p *peer) connect() error {
	p.sess.Start()
	select {
	case <-p.up:
		if !p.sess.FourOctetAS() {
			return fmt.Errorf("session %s did not negotiate 4-octet AS numbers, which the premarshalled stream assumes", p.sess.Name())
		}
		return nil
	case err := <-p.down:
		return fmt.Errorf("session %s went down while connecting: %w", p.sess.Name(), err)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("session %s not established after 10s", p.sess.Name())
	}
}

func (p *peer) send(msgs []wire.Message) error {
	for _, m := range msgs {
		if err := p.sess.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// harness is one started router with its sessions.
type harness struct {
	in     *inputs
	r      *core.Router
	inj    *peer
	rcv    *peer // nil on receiver-less workloads
	sender *peer // whichever session sends the timed stream

	// pollGaps collects, per counter-completed phase, how long before the
	// poll that saw completion the previous poll was, in seconds.
	pollGaps []float64
}

// start brings up the router and at most two sessions and installs the
// preload. It opens one connection per session and no others.
func start(in *inputs) (*harness, error) {
	w := in.w
	neighbors := []core.NeighborConfig{{AS: injectorAS, Import: in.importMap}}
	if w.receiver {
		neighbors = append(neighbors, core.NeighborConfig{AS: receiverAS, Export: in.exportMap})
	}
	r, err := core.NewRouter(core.Config{
		AS:           routerAS,
		ID:           routerID,
		ListenAddr:   "127.0.0.1:0",
		Neighbors:    neighbors,
		UpdateGroups: w.policies,
	})
	if err != nil {
		return nil, err
	}
	if err := r.Start(); err != nil {
		return nil, err
	}
	h := &harness{in: in, r: r}
	h.inj = newPeer("injector", injectorAS, injectorID, r.ListenAddr())
	h.sender = h.inj
	if err := h.inj.connect(); err != nil {
		h.stop()
		return nil, err
	}
	if w.receiver {
		h.rcv = newPeer("receiver", receiverAS, receiverID, r.ListenAddr())
		if err := h.rcv.connect(); err != nil {
			h.stop()
			return nil, err
		}
	}
	if w.losers {
		h.sender = h.rcv
		// The injector installs the table and the router passes all of it
		// on to the receiver; both must have settled before losers arrive.
		o := &observer{want: in.preload.prefixes(), done: make(chan time.Time, 1)}
		h.rcv.obs.Store(o)
		if err := h.inj.send(in.preload.msgs); err != nil {
			h.stop()
			return nil, err
		}
		select {
		case <-o.done:
		case <-time.After(phaseDeadline):
			h.stop()
			return nil, fmt.Errorf("preload: receiver saw %d of %d prefixes", o.got.Load(), in.preload.prefixes())
		}
		h.rcv.obs.Store(nil)
	}
	return h, nil
}

// stop tears the sessions and the router down and waits for their
// goroutines.
func (h *harness) stop() {
	h.inj.sess.Stop()
	if h.rcv != nil {
		h.rcv.sess.Stop()
	}
	h.r.Stop()
}

// phaseTimes is what one closed-loop phase measured.
type phaseTimes struct {
	start time.Time     // just before the first Send call
	wall  time.Duration // first Send call to completion event
	send  time.Duration // first Send call to last Send returned
	// counted is when Transactions() reached its target, from the first
	// Send; only set when the phase was asked to watch the counter.
	counted time.Duration
	missing int // prefixes not confirmed by the deadline
}

// drain is how long the router took to count the pass after the last
// UPDATE was queued; exportDrain how much longer until the receiver had
// seen all of it (0 where nothing is exported).
func (pt phaseTimes) drain() time.Duration {
	if pt.counted < pt.send {
		return 0
	}
	return pt.counted - pt.send
}

func (pt phaseTimes) exportDrain() time.Duration {
	if pt.wall < pt.counted {
		return 0
	}
	return pt.wall - pt.counted
}

// errLost marks a phase that missed its deadline.
var errLost = errors.New("phase not confirmed by its deadline")

// phase sends one pass closed loop and waits for its completion event: the
// receiver's handler having seen every prefix, or Transactions() having
// counted them. watchCounter additionally polls the counter on
// receiver-completed phases (the traced run's core.drain_s). held, when
// non-nil, makes the receiver record what it holds.
func (h *harness) phase(p pass, withdraw, watchCounter bool, held map[netaddr.Prefix][]byte) (phaseTimes, error) {
	n := p.prefixes()
	byReceiver := h.in.w.byReceiver()
	var o *observer
	if byReceiver {
		o = &observer{want: n, withdraw: withdraw, done: make(chan time.Time, 1), held: held}
		h.rcv.obs.Store(o)
		defer h.rcv.obs.Store(nil)
	}

	base := h.r.Transactions()
	t0 := time.Now()
	pt := phaseTimes{start: t0}
	if err := h.sender.send(p.msgs); err != nil {
		return pt, err
	}
	pt.send = time.Since(t0)
	deadline := time.Now().Add(phaseDeadline)

	var counted chan time.Duration
	if byReceiver && watchCounter {
		counted = make(chan time.Duration, 1)
		go func() {
			at, _ := h.waitCounter(base, n, t0, deadline)
			counted <- at.Sub(t0)
		}()
	}
	var err error
	if byReceiver {
		select {
		case at := <-o.done:
			pt.wall = at.Sub(t0)
		case <-time.After(time.Until(deadline)):
			err = errLost
		}
	} else {
		at, ok := h.waitCounter(base, n, t0, deadline)
		pt.wall = at.Sub(t0)
		pt.counted = pt.wall
		if !ok {
			err = errLost
		}
	}
	if counted != nil {
		pt.counted = <-counted
	}
	switch {
	case err == nil:
	case byReceiver:
		pt.missing = n - int(o.got.Load())
	default:
		pt.missing = n - int(h.r.Transactions()-base)
	}
	return pt, err
}

// The completion poller of closed-loop phases sleeps a quarter of what the
// progress so far says is left, at most maxPollSleep, through the Go
// scheduler (so its P is free meanwhile); once that quarter is under
// spinBelow it stops sleeping and yields between reads instead, so the
// polls crowd toward the end and completion is seen within microseconds
// at the price of one busy P for about the last millisecond of a phase.
const (
	maxPollSleep = 2 * time.Millisecond
	spinBelow    = 250 * time.Microsecond
)

// waitCounter polls Transactions() until it has counted n past base,
// returning the instant it was first seen there. The gap before the last
// poll bounds how late completion was seen; it goes into pollGaps.
func (h *harness) waitCounter(base uint64, n int, since, deadline time.Time) (time.Time, bool) {
	last := time.Now()
	for {
		done := h.r.Transactions() - base
		now := time.Now()
		if done >= uint64(n) {
			h.pollGaps = append(h.pollGaps, now.Sub(last).Seconds())
			return now, true
		}
		if now.After(deadline) {
			return now, false
		}
		sleep := maxPollSleep
		if done > 0 {
			left := time.Duration(float64(now.Sub(since)) * float64(uint64(n)-done) / float64(done))
			sleep = min(left/4, maxPollSleep)
		}
		last = now
		if sleep < spinBelow {
			runtime.Gosched()
		} else {
			time.Sleep(sleep)
		}
	}
}

// pacedTick is the open-loop generator's clock: every tick it sends the
// UPDATEs covering the next rate×tick prefixes, all due at that tick.
const pacedTick = time.Millisecond

// pacedTimes is what one open-loop pass measured.
type pacedTimes struct {
	lat     []float64 // per prefix: due time to completion event, ms
	lag     []float64 // per UPDATE: due time to the Send call, ms
	missing int
}

// pacedPass sends one pass open loop at rate prefixes/s: an UPDATE goes out
// at its due tick whether or not the router has kept up, and each prefix is
// timed from that due instant — not from the actual send — to its
// completion event, so a stall charges every UPDATE queued behind it.
func (h *harness) pacedPass(p pass, withdraw bool, rate float64) (pacedTimes, error) {
	n := p.prefixes()
	perTick := rate * pacedTick.Seconds()
	dueMsg := make([]time.Duration, len(p.msgs))
	due := make([]time.Duration, n)
	for k := range p.msgs {
		dueMsg[k] = time.Duration(float64(p.cum[k])/perTick) * pacedTick
		for i := p.cum[k]; i < p.cum[k+1]; i++ {
			due[i] = dueMsg[k]
		}
	}

	pt := pacedTimes{lag: make([]float64, 0, len(p.msgs))}
	base := h.r.Transactions()
	// The schedule starts on a tick, so an UPDATE due at tick k is late
	// only by how late that tick fired.
	tick := time.NewTicker(pacedTick)
	defer tick.Stop()
	<-tick.C
	t0 := time.Now()
	deadline := t0.Add(dueMsg[len(dueMsg)-1] + phaseDeadline)

	byReceiver := h.in.w.byReceiver()
	var o *observer
	if byReceiver {
		o = &observer{
			want: n, withdraw: withdraw, done: make(chan time.Time, 1),
			position: h.in.position, due: due, start: t0, lat: make([]float64, 0, n),
		}
		h.rcv.obs.Store(o)
		defer h.rcv.obs.Store(nil)
	}
	// Counter-completed workloads have no per-prefix event, so a sampler
	// attributes each newly counted transaction to the next prefix in send
	// order, one poll quantum coarse.
	var sampler chan []float64
	if !byReceiver {
		sampler = make(chan []float64, 1)
		go func() {
			lat := make([]float64, 0, n)
			for len(lat) < n {
				c := int(h.r.Transactions() - base)
				now := time.Now()
				if now.After(deadline) {
					break
				}
				since := now.Sub(t0)
				for len(lat) < c && len(lat) < n {
					lat = append(lat, float64(since-due[len(lat)])/float64(time.Millisecond))
				}
				pollSleep()
			}
			sampler <- lat
		}()
	}

	var sendErr error
send:
	for k := 0; k < len(p.msgs); <-tick.C {
		for ; k < len(p.msgs); k++ {
			// Ticks jitter around their nominal instants; half a tick of
			// tolerance keeps one that fires a little early from pushing
			// its UPDATEs to the next.
			since := time.Since(t0)
			if dueMsg[k] > since+pacedTick/2 {
				break
			}
			pt.lag = append(pt.lag, float64(since-dueMsg[k])/float64(time.Millisecond))
			if sendErr = h.sender.sess.Send(p.msgs[k]); sendErr != nil {
				break send
			}
		}
	}

	if byReceiver {
		select {
		case <-o.done:
			pt.lat = o.lat
		case <-time.After(time.Until(deadline)):
			pt.missing = n - int(o.got.Load())
		}
	} else {
		pt.lat = <-sampler
		pt.missing = n - len(pt.lat)
	}
	if sendErr != nil {
		return pt, sendErr
	}
	if pt.missing > 0 {
		return pt, errLost
	}
	return pt, nil
}
