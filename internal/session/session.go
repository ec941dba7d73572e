// Package session drives one live BGP peering over TCP: it owns the
// socket, the hold/keepalive/connect-retry deadlines on one timer, and a
// single event-loop goroutine that feeds the pure FSM (internal/fsm) and
// executes the actions it returns. Both the benchmark speakers and the router under
// test are built from Sessions.
package session

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// Handler receives session lifecycle callbacks. Callbacks run on the
// session's event-loop goroutine: they must not block for long and must
// not call back into the session synchronously except via Send/Stop.
type Handler interface {
	// Established fires when the session reaches the Established state.
	Established(s *Session)
	// Update delivers one received UPDATE message.
	Update(s *Session, u wire.Update)
	// Down fires when an established session terminates; err explains why.
	Down(s *Session, err error)
}

// RefreshHandler is optionally implemented by Handlers that want
// ROUTE-REFRESH (RFC 2918) delivery; sessions whose handler does not
// implement it silently ignore refresh requests.
type RefreshHandler interface {
	Refresh(s *Session, r wire.RouteRefresh)
}

// BatchHandler is optionally implemented by Handlers that want UPDATEs
// delivered a buffered read at a time: the UPDATEs one read of the socket
// held are delivered, once the FSM has passed them, in UpdateBatch calls
// of at most Config.BatchMaxUpdates each; Update is then never called.
// Nothing waits for more UPDATEs to arrive.
//
// Ordering guarantees: updates appear in the batch in arrival order, and
// a read's UPDATEs are delivered before the message that ended the read
// is handled, so a handler observes exactly the per-session event order
// it would without batching. The batch slice is only valid until the
// callback returns (the session reuses it); the updates' payload slices
// (NLRI, Withdrawn, attribute contents) may be retained.
type BatchHandler interface {
	UpdateBatch(s *Session, us []wire.Update)
}

// FinishHandler is optionally implemented by Handlers that keep track of
// their sessions: Finished is called once, from the event loop as it
// ends — after Stop, or when the session reached its terminal state on
// its own — and is the last callback the session makes. An owner that
// holds sessions in order to Stop them can let go of this one.
type FinishHandler interface {
	Finished(s *Session)
}

// NopHandler ignores all callbacks; embed it to implement a subset.
type NopHandler struct{}

// Established implements Handler.
func (NopHandler) Established(*Session) {}

// Update implements Handler.
func (NopHandler) Update(*Session, wire.Update) {}

// Down implements Handler.
func (NopHandler) Down(*Session, error) {}

// Config parameterizes a session.
type Config struct {
	FSM fsm.Config
	// DialTarget is the peer's "host:port"; required unless the session is
	// passive (conn supplied via Attach).
	DialTarget string
	// ConnectRetry is the interval between outbound connection attempts.
	// Zero defaults to 2 seconds (short: benchmarks restart often).
	ConnectRetry time.Duration
	// DialTimeout bounds one connection attempt. Zero defaults to 5s.
	DialTimeout time.Duration
	// Dial, when non-nil, replaces net.DialTimeout for outbound
	// connection attempts. Fault-injection layers (internal/netem) hook
	// in here to wrap the transport.
	Dial    func(network, address string, timeout time.Duration) (net.Conn, error)
	Handler Handler
	// BatchMaxUpdates caps the messages per UpdateBatch delivery when
	// Handler implements BatchHandler (ignored otherwise). Below 2 every
	// UPDATE is delivered as a batch of one.
	BatchMaxUpdates int
	// BatchMaxDelay is not read: no received UPDATE is held back waiting
	// for others.
	//
	// Deprecated: setting it has no effect.
	BatchMaxDelay time.Duration
	// Name labels the session in errors and stats.
	Name string
}

// DefaultCapabilities is the capability set a session advertises when
// Config.FSM.Capabilities is nil: multiprotocol IPv4 and IPv6 unicast
// (RFC 4760) plus the 4-octet-AS capability carrying the local AS
// (RFC 6793). Pass an explicit empty slice to advertise nothing.
func DefaultCapabilities(localAS uint32) []wire.Capability {
	return []wire.Capability{
		wire.MultiprotocolIPv4Unicast(),
		wire.MultiprotocolIPv6Unicast(),
		wire.FourOctetASCapability(localAS),
	}
}

// Counters aggregates per-session message statistics. All fields are
// atomics so they can be read while the session runs.
type Counters struct {
	MsgsIn      atomic.Uint64
	MsgsOut     atomic.Uint64
	UpdatesIn   atomic.Uint64
	UpdatesOut  atomic.Uint64
	PrefixesIn  atomic.Uint64 // announced NLRI received
	WithdrawsIn atomic.Uint64 // withdrawn prefixes received
}

// event is the internal event-loop message: an FSM event plus optional
// transport payload, or a reader hand-off.
type event struct {
	fsm  fsm.Event
	conn net.Conn  // with EvTCPConnEstablished
	err  error     // with EvTCPConnFails / EvMsgError
	slab *readSlab // when set, the event is this hand-off and fsm is unused
}

// readSlab is one reader→loop hand-off: every message one buffered read
// held, in arrival order. updates are the decoded UPDATEs; a non-UPDATE
// message or a read error, when one came next, ends the slab as end.
// The read buffer bounds a slab: at most 2×wire.MaxMsgLen bytes buffered
// by the read plus the one message that read completed. Each reader owns
// two slabs, which the loop hands back through free once it has fed them
// through the FSM, so at most two are in flight.
type readSlab struct {
	updates []wire.Update
	end     event
	hasEnd  bool
	readAt  time.Time // when the read completed: the peer was heard from then
	conn    net.Conn  // the transport the slab was read from
	free    chan *readSlab
}

// outboxItem is one queued transmission: either a message to marshal or
// one pre-marshaled UPDATE shared with other sessions (update-group
// fan-out; see SendShared).
type outboxItem struct {
	msg    wire.Message
	shared []byte
}

// outChunk bounds the queued items the event loop writes per turn, so
// timers, inbound events and Stop are served between chunks of a burst.
const outChunk = 256

// Session is one BGP peering endpoint.
type Session struct {
	cfg    Config
	fsm    *fsm.FSM
	events chan event
	wake   chan struct{} // one slot: the outbound queue has items for the loop
	done   chan struct{}
	wg     sync.WaitGroup

	// Owned by the event loop. conn is also read by closeDone, so the
	// loop assigns it under mu.
	conn         net.Conn
	writer       *wire.Writer
	sendHold     time.Time // the transport's write deadline; zero when none is set
	timers       timers
	readerCancel chan struct{}
	bh           BatchHandler // the handler, when it takes batches
	heard        time.Time    // when the peer was last heard from: the transport came up or a read completed
	passed       int          // UPDATEs of that slab the FSM passed for delivery

	Stats Counters

	stateMirror atomic.Int32 // fsm.State mirror maintained by the loop

	// Local capability summary, computed once in New.
	local4    bool
	localAFIs map[uint16]bool

	mu          sync.Mutex
	outq        [][]outboxItem // the outbound queue: Send appends, the loop takes the oldest chunk
	established bool
	lastErr     error
	negAS4      bool    // both sides advertised the 4-octet-AS capability
	negAFIs     [2]bool // families both sides advertised, by netaddr.Family
}

// New builds a session; call Start (or Attach for inbound connections) to
// run it.
func New(cfg Config) *Session {
	if cfg.Handler == nil {
		cfg.Handler = NopHandler{}
	}
	if cfg.ConnectRetry == 0 {
		cfg.ConnectRetry = 2 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.FSM.Capabilities == nil {
		cfg.FSM.Capabilities = DefaultCapabilities(cfg.FSM.LocalAS)
	}
	s := &Session{
		cfg:    cfg,
		fsm:    fsm.New(cfg.FSM),
		events: make(chan event, 64),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	s.bh, _ = cfg.Handler.(BatchHandler)
	s.localAFIs = wire.MultiprotocolAFIs(cfg.FSM.Capabilities)
	for _, c := range cfg.FSM.Capabilities {
		if c.Code == wire.CapFourOctetAS {
			s.local4 = true
		}
	}
	return s
}

// Start launches the event loop and (for active sessions) the first
// connection attempt.
func (s *Session) Start() {
	s.wg.Add(1)
	go s.loop()
	s.events <- event{fsm: fsm.Event{Type: fsm.EvManualStart}}
}

// Attach hands an accepted inbound connection to a passive session. Call
// after Start.
func (s *Session) Attach(conn net.Conn) {
	s.events <- event{fsm: fsm.Event{Type: fsm.EvTCPConnEstablished}, conn: conn}
}

// Stop terminates the session gracefully (CEASE notification when
// established) and waits for its goroutines. A loop that has not
// finished within two seconds — parked on a write to a peer that stopped
// reading, say — is ended by force.
func (s *Session) Stop() {
	grace := time.After(2 * time.Second)
	select {
	case s.events <- event{fsm: fsm.Event{Type: fsm.EvManualStop}}:
		select {
		case <-s.done:
		case <-grace:
		}
	case <-s.done:
	case <-grace:
	}
	s.closeDone()
	s.wg.Wait()
}

// closeDone finishes the session for everyone outside the event loop:
// Sends fail from now on, what they queued is dropped, and the transport
// is closed so that a write parked on it returns.
func (s *Session) closeDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
	default:
		close(s.done)
		s.outq = nil
		if s.conn != nil {
			s.conn.Close() //bgplint:allow(errdrop) reason=forced shutdown; the loop's own teardown closes it again
		}
	}
}

// Send queues a message for transmission on the established session. It
// never blocks: the queue is unbounded, and the event loop writes it out
// in chunks between its other events. It returns an error once the
// session has finished.
func (s *Session) Send(m wire.Message) error {
	return s.enqueue(outboxItem{msg: m})
}

// SendShared queues one framed UPDATE, already marshaled in the
// session's wire mode, like Send. The session only reads update (its
// writer copies the bytes), so the same bytes may be queued to any
// number of sessions; the caller must never write them again.
func (s *Session) SendShared(update []byte) error {
	return s.enqueue(outboxItem{shared: update})
}

func (s *Session) enqueue(it outboxItem) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return fmt.Errorf("session %s: closed", s.cfg.Name)
	default:
	}
	switch n := len(s.outq); {
	case n == 0:
		s.outq = append(s.outq, nil)
		s.wakeLoop()
	case len(s.outq[n-1]) == outChunk:
		// A burst: further chunks are allocated whole, not grown.
		s.outq = append(s.outq, make([]outboxItem, 0, outChunk))
	}
	tail := &s.outq[len(s.outq)-1]
	*tail = append(*tail, it)
	return nil
}

// takeOut removes the oldest chunk from the outbound queue and wakes the
// loop again for the rest, if any. Chunks are never reused, so a drained
// burst leaves no items behind.
func (s *Session) takeOut() []outboxItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.outq) == 0 {
		return nil
	}
	chunk := s.outq[0]
	s.outq[0] = nil
	if s.outq = s.outq[1:]; len(s.outq) > 0 {
		s.wakeLoop()
	}
	return chunk
}

// wakeLoop leaves the loop a wake-up unless one is already pending.
func (s *Session) wakeLoop() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Established reports whether the session is currently established.
func (s *Session) Established() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.established
}

// Err returns the last terminal error.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// State returns the FSM state as last published by the event loop. Safe
// for concurrent use; intended for diagnostics.
func (s *Session) State() fsm.State { return fsm.State(s.stateMirror.Load()) }

// Name returns the configured session name.
func (s *Session) Name() string { return s.cfg.Name }

// PeerOpen returns the peer's OPEN message, valid once the session has
// established. Intended for use inside Handler callbacks, which run on the
// event-loop goroutine that owns the FSM.
func (s *Session) PeerOpen() wire.Open { return s.fsm.PeerOpen() }

// FourOctetAS reports whether both sides advertised the 4-octet-AS
// capability, i.e. the session encodes AS_PATH with 4-octet ASNs
// (RFC 6793). Valid once the peer's OPEN has been processed.
func (s *Session) FourOctetAS() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.negAS4
}

// NegotiatedFamilies reports, per netaddr.Family, whether both sides
// advertised the matching multiprotocol unicast capability. Valid once
// the peer's OPEN has been processed.
func (s *Session) NegotiatedFamilies() [2]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.negAFIs
}

// negotiate folds the peer's OPEN capabilities against ours: the
// intersection decides the session's wire mode (4-octet AS_PATH) and
// which address families may be exchanged. Runs on the event loop (which
// owns the writer) before any UPDATE is written.
func (s *Session) negotiate(o wire.Open) {
	_, peer4 := o.FourOctetAS()
	as4 := s.local4 && peer4
	peerAFIs := wire.MultiprotocolAFIs(o.Caps())
	var afis [2]bool
	for afi := range s.localAFIs {
		if !peerAFIs[afi] {
			continue
		}
		if f, ok := netaddr.FamilyFromAFI(afi); ok {
			afis[f] = true
		}
	}
	if s.writer != nil {
		s.writer.SetFourOctetAS(as4)
	}
	s.mu.Lock()
	s.negAS4, s.negAFIs = as4, afis
	s.mu.Unlock()
}

// loop is the event-loop goroutine: the only goroutine touching the FSM,
// the writer, and the timers.
func (s *Session) loop() {
	defer s.wg.Done()
	if fh, ok := s.cfg.Handler.(FinishHandler); ok {
		defer fh.Finished(s)
	}
	defer s.cleanup()
	for {
		select {
		case <-s.done:
			return
		case ev := <-s.events:
			if s.handle(ev) {
				return
			}
		case <-s.wake:
			s.writeOut(s.takeOut())
		case <-s.timers.c:
			if s.timers.fired(time.Now(), s.expire) {
				return
			}
		}
	}
}

// expire raises the FSM event of a deadline that has passed. It returns
// true when the session is finished.
func (s *Session) expire(k deadline) bool {
	return s.handle(event{fsm: fsm.Event{Type: expiry[k]}})
}

// deliver hands received UPDATEs to the handler: in batches of at most
// BatchMaxUpdates when it takes batches, one Update call each otherwise.
func (s *Session) deliver(us []wire.Update) {
	if s.bh == nil {
		for i := range us {
			s.cfg.Handler.Update(s, us[i])
		}
		return
	}
	for n := max(s.cfg.BatchMaxUpdates, 1); len(us) > 0; {
		k := min(n, len(us))
		s.bh.UpdateBatch(s, us[:k])
		us = us[k:]
	}
}

// writeOut writes one chunk taken off the outbound queue as one flush,
// under the send hold timer.
func (s *Session) writeOut(chunk []outboxItem) {
	if len(chunk) == 0 || s.writer == nil || s.fsm.State() != fsm.Established {
		// Not established: drop silently. Benchmark speakers only send
		// after Established fires, so this is a shutdown race, not a bug.
		return
	}
	s.armSendHold()
	for _, it := range chunk {
		var err error
		if it.shared != nil {
			err = s.writer.WriteRaw(it.shared)
		} else {
			err = s.writer.WriteMessageBuffered(it.msg)
		}
		if err != nil {
			s.writeFailed(err)
			return
		}
		s.Stats.MsgsOut.Add(1)
		if it.shared != nil || it.msg.Type() == wire.MsgUpdate {
			s.Stats.UpdatesOut.Add(1)
		}
	}
	if err := s.writer.Flush(); err != nil {
		s.writeFailed(err)
	}
}

// armSendHold runs the send hold timer (RFC 9687) over the writes that
// follow as a write deadline: a peer that takes no bytes for one to two
// negotiated hold times fails the transport instead of parking the event
// loop. The deadline is moved to twice the hold time ahead only once less
// than one hold time is left, not on every write. None while the hold
// time is zero or not yet negotiated.
func (s *Session) armSendHold() {
	hold := time.Duration(s.fsm.HoldTime()) * time.Second
	now := time.Now()
	if hold == 0 || s.sendHold.Sub(now) >= hold {
		return
	}
	s.sendHold = now.Add(2 * hold)
	s.conn.SetWriteDeadline(s.sendHold) //bgplint:allow(errdrop) reason=it fails only on a closed transport, which fails the write that follows
}

// writeFailed reports a failed write as a transport failure, recording
// the error now: the reader's echo of it ("use of closed connection") may
// be queued ahead of the event, and Down reports the first one recorded.
func (s *Session) writeFailed(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("send hold timer expired: %w", err)
	}
	s.recordErr(err)
	select {
	case s.events <- event{fsm: fsm.Event{Type: fsm.EvTCPConnFails}, err: err}:
	default:
	}
}

// handle feeds one event through the FSM and executes the actions.
// It returns true when the session is finished.
func (s *Session) handle(ev event) bool {
	if ev.slab != nil {
		return s.handleSlab(ev.slab)
	}
	if ev.conn != nil {
		if s.conn != nil {
			// Connection collision: keep the first transport, ignore the
			// duplicate entirely (a full implementation would compare BGP
			// identifiers per RFC 4271 section 6.8).
			ev.conn.Close() //bgplint:allow(errdrop) reason=best-effort close of a rejected duplicate transport
			return false
		}
		// Adopt the transport before the FSM acts on it.
		s.adoptConn(ev.conn)
	}
	if ev.fsm.Type == fsm.EvHoldTimerExpires {
		// Record why the session is about to die: ActStopped reports the
		// first recorded error to Handler.Down, and "the peer went silent"
		// is the one teardown cause no transport error ever captures.
		s.recordErr(&wire.NotifyError{Code: wire.ErrCodeHoldTimer, Reason: "hold timer expired"})
	}
	if ev.fsm.Type == fsm.EvTCPConnFails {
		if ev.err != nil {
			s.recordErr(ev.err)
		}
		// The failed transport is unusable: release it now (the FSM's
		// Connect/Active transitions do not emit ActCloseConn) so a later
		// reconnect is not mistaken for a connection collision and the
		// reader goroutine is cancelled instead of leaked.
		s.dropConn()
	}
	if ev.fsm.Type == fsm.EvMsgOpen && ev.fsm.Open != nil {
		s.negotiate(*ev.fsm.Open)
	}
	acts := s.fsm.Handle(ev.fsm)
	s.stateMirror.Store(int32(s.fsm.State()))
	finished := false
	for _, a := range acts {
		if s.execute(a, ev) {
			finished = true
		}
	}
	if ev.fsm.Type == fsm.EvManualStop {
		s.closeDone()
		finished = true
	}
	return finished
}

func (s *Session) execute(a fsm.Action, ev event) bool {
	switch a.Type {
	case fsm.ActConnect:
		s.dial()
	case fsm.ActSendOpen:
		open := wire.NewOpen(s.cfg.FSM.LocalAS, s.cfg.FSM.HoldTime, s.cfg.FSM.LocalID)
		if caps, err := wire.MarshalCapabilities(s.cfg.FSM.Capabilities); err == nil {
			open.OptParams = caps
		}
		s.sendNow(open)
	case fsm.ActSendKeepalive:
		s.sendNow(wire.Keepalive{})
	case fsm.ActSendNotify:
		if a.Notif != nil {
			s.sendNow(*a.Notif)
		}
	case fsm.ActCloseConn:
		s.dropConn()
		if s.fsm.State() == fsm.Idle {
			// Terminal for this session object: benchmark sessions do not
			// auto-restart once torn down.
			s.closeDone()
			return true
		}
	case fsm.ActStartHold:
		s.startHold()
	case fsm.ActStopHold:
		s.timers.stop(holdDeadline)
	case fsm.ActStartKeepalive:
		s.startKeepalive()
	case fsm.ActStopKeepalive:
		s.timers.stop(keepaliveDeadline)
	case fsm.ActStartConnectRetry:
		s.timers.set(retryDeadline, time.Now(), s.cfg.ConnectRetry)
	case fsm.ActStopConnectRetry:
		s.timers.stop(retryDeadline)
	case fsm.ActEstablished:
		s.mu.Lock()
		s.established = true
		s.mu.Unlock()
		s.cfg.Handler.Established(s)
	case fsm.ActStopped:
		s.mu.Lock()
		s.established = false
		err := s.lastErr
		s.mu.Unlock()
		if err == nil {
			err = errors.New("session stopped")
		}
		s.cfg.Handler.Down(s, err)
	case fsm.ActDeliverRefresh:
		if a.Refresh != nil {
			if rh, ok := s.cfg.Handler.(RefreshHandler); ok {
				rh.Refresh(s, *a.Refresh)
			}
		}
	case fsm.ActDeliverUpdate:
		if a.Update != nil {
			s.Stats.UpdatesIn.Add(1)
			s.Stats.PrefixesIn.Add(uint64(len(a.Update.NLRI)))
			s.Stats.WithdrawsIn.Add(uint64(len(a.Update.Withdrawn)))
			s.passed++
		}
	}
	return false
}

func (s *Session) recordErr(err error) {
	s.mu.Lock()
	if s.lastErr == nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

// sendNow writes a control message immediately (bypassing the outbound
// queue so OPEN/KEEPALIVE/NOTIFICATION are not queued behind bulk
// updates), under the send hold timer like a queued chunk.
func (s *Session) sendNow(m wire.Message) {
	if s.writer == nil {
		return
	}
	s.armSendHold()
	if err := s.writer.WriteMessage(m); err != nil {
		s.writeFailed(err)
		return
	}
	s.Stats.MsgsOut.Add(1)
}

// dial starts an asynchronous connection attempt.
func (s *Session) dial() {
	target := s.cfg.DialTarget
	dialFn := s.cfg.Dial
	if dialFn == nil {
		dialFn = net.DialTimeout
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		conn, err := dialFn("tcp", target, s.cfg.DialTimeout)
		ev := event{}
		if err != nil {
			ev.fsm = fsm.Event{Type: fsm.EvTCPConnFails}
			ev.err = err
		} else {
			ev.fsm = fsm.Event{Type: fsm.EvTCPConnEstablished}
			ev.conn = conn
		}
		select {
		case s.events <- ev:
		case <-s.done:
			if conn != nil {
				conn.Close() //bgplint:allow(errdrop) reason=session already stopped; nothing can act on a close error
			}
		}
	}()
}

// adoptConn installs a transport and spawns its reader. The caller has
// turned away a colliding one.
func (s *Session) adoptConn(conn net.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	s.writer, s.sendHold, s.heard = wire.NewWriter(conn), time.Time{}, time.Now()
	cancel := make(chan struct{})
	s.readerCancel = cancel
	s.wg.Add(1)
	go s.readLoop(conn, cancel)
}

// readLoop hands the inbound messages to the loop a buffered read at a
// time: it decodes every whole message already buffered into a slab and
// sends the slab as one event, reading the socket again only for the
// first message of the next slab, so it never blocks while holding
// decoded messages.
func (s *Session) readLoop(conn net.Conn, cancel chan struct{}) {
	defer s.wg.Done()
	r := wire.NewReader(conn)
	free := make(chan *readSlab, 2)
	free <- &readSlab{conn: conn, free: free}
	free <- &readSlab{conn: conn, free: free}
	for {
		var sl *readSlab
		select {
		case sl = <-free:
		case <-cancel:
			return
		case <-s.done:
			return
		}
		err := s.fill(r, sl)
		sl.readAt = time.Now()
		select {
		case s.events <- event{slab: sl}:
		case <-cancel:
			return
		case <-s.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// fill decodes messages into sl until a non-UPDATE message or an error
// ends it, or no whole message is left buffered. It returns the read
// error, after which the stream is unusable.
func (s *Session) fill(r *wire.Reader, sl *readSlab) error {
	for {
		n := len(sl.updates)
		sl.updates = append(sl.updates, wire.Update{})
		typ, m, err := r.ReadInto(&sl.updates[n])
		if err == nil {
			s.Stats.MsgsIn.Add(1)
		}
		if err != nil || typ != wire.MsgUpdate {
			sl.updates[n] = wire.Update{}
			sl.updates = sl.updates[:n]
			sl.end, sl.hasEnd = endEvent(m, err), true
			if o, ok := m.(wire.Open); ok && s.local4 {
				// The reader owns its parse mode: switch to 4-octet
				// AS_PATH decoding the moment the peer's OPEN commits
				// both sides to it, before any UPDATE bytes follow.
				if _, peer4 := o.FourOctetAS(); peer4 {
					r.SetFourOctetAS(true)
				}
			}
			return err
		}
		if !r.Buffered() {
			return nil
		}
	}
}

// handleSlab feeds a reader hand-off through the FSM one message at a
// time, in arrival order, delivers the UPDATEs the FSM passed, then
// handles the message that ended the slab and gives the slab back to its
// reader. Messages read from a transport the loop has since dropped are
// not fed.
func (s *Session) handleSlab(sl *readSlab) bool {
	s.heard = sl.readAt
	finished := false
	for i := range sl.updates {
		if finished || s.conn != sl.conn {
			break
		}
		finished = s.handle(event{fsm: fsm.Event{Type: fsm.EvMsgUpdate, Update: &sl.updates[i]}})
	}
	// The FSM passes an UPDATE only while Established, where an UPDATE
	// does nothing else but move the hold deadline: the UPDATEs it passed
	// are the slab's first ones, and no other callback came between them.
	s.deliver(sl.updates[:s.passed])
	s.passed = 0
	if sl.hasEnd && !finished && s.conn == sl.conn {
		finished = s.handle(sl.end)
	}
	// Recycle the slots without their slices, which would keep the
	// reader's chunks alive.
	clear(sl.updates)
	sl.updates = sl.updates[:0]
	sl.end, sl.hasEnd = event{}, false
	sl.free <- sl
	return finished
}

// endEvent maps the message or read error that ended a slab onto its
// event.
func endEvent(m wire.Message, err error) event {
	if err != nil {
		var ne *wire.NotifyError
		if errors.As(err, &ne) {
			return event{fsm: fsm.Event{Type: fsm.EvMsgError, Err: ne}}
		}
		return event{fsm: fsm.Event{Type: fsm.EvTCPConnFails}, err: err}
	}
	switch v := m.(type) {
	case wire.Open:
		return event{fsm: fsm.Event{Type: fsm.EvMsgOpen, Open: &v}}
	case wire.Notification:
		return event{fsm: fsm.Event{Type: fsm.EvMsgNotification, Notif: &v}}
	case wire.Keepalive:
		return event{fsm: fsm.Event{Type: fsm.EvMsgKeepalive}}
	case wire.RouteRefresh:
		return event{fsm: fsm.Event{Type: fsm.EvMsgRouteRefresh, Refresh: &v}}
	}
	return event{fsm: fsm.Event{Type: fsm.EvMsgError, Err: fmt.Errorf("unknown message %T", m)}}
}

func (s *Session) dropConn() {
	if s.readerCancel != nil {
		close(s.readerCancel)
		s.readerCancel = nil
	}
	if s.conn != nil {
		s.conn.Close() //bgplint:allow(errdrop) reason=teardown of an already-failed transport; the session event is the signal
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
	}
	s.writer = nil
}

// startHold moves the hold deadline to the hold time after the peer was
// last heard from: every message of a slab moves it from the same
// instant, so the clock is read once per read, not once per UPDATE.
func (s *Session) startHold() {
	hold := s.fsm.HoldTime()
	if st := s.fsm.State(); st == fsm.OpenSent || st == fsm.Connect || st == fsm.Active {
		hold = 240 // pre-negotiation: a generous 4-minute bound (RFC suggestion)
	}
	if hold != 0 {
		s.timers.set(holdDeadline, s.heard, time.Duration(hold)*time.Second)
	}
}

// startKeepalive sends the next KEEPALIVE a third of the negotiated hold
// time from now, at least a second; none while the hold time is zero.
func (s *Session) startKeepalive() {
	if hold := s.fsm.HoldTime(); hold != 0 {
		s.timers.set(keepaliveDeadline, time.Now(), max(time.Duration(hold)*time.Second/3, time.Second))
	}
}

func (s *Session) cleanup() {
	s.timers.disarm()
	s.dropConn()
	s.closeDone()
}
