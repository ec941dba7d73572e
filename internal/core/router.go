package core

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bgpbench/internal/damping"
	"bgpbench/internal/fib"
	"bgpbench/internal/forward"
	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// DefaultBatchMaxUpdates bounds the UpdateBatch calls every router
// session delivers a buffered read's UPDATEs in. A constant, not
// configuration: a batch of one is the unbatched case, and the benchmark
// measures exactly this value.
const DefaultBatchMaxUpdates = 256

// DefaultBatchMaxDelay is no longer read: a session holds no received
// UPDATE back waiting for others.
//
// Deprecated: it has no effect.
const DefaultBatchMaxDelay = 200 * time.Microsecond

// NeighborConfig describes one configured peer of the router.
type NeighborConfig struct {
	// AS identifies the neighbour; inbound sessions are matched to their
	// configuration by the effective AS in their OPEN message (the
	// 4-octet capability value when present, else the 2-octet field).
	AS uint32
	// DialTarget, when non-empty, makes the router initiate the session.
	DialTarget string
	// Import/Export policies; nil permits everything unchanged.
	Import, Export *policy.RouteMap
	// MaxPrefixes, when positive, tears the session down (administrative
	// CEASE) if the peer contributes more than this many prefixes — the
	// standard protection against table overflow.
	MaxPrefixes int
}

// Config parameterizes a Router.
type Config struct {
	AS       uint32
	ID       netaddr.Addr
	HoldTime uint16 // default 90
	// ListenAddr ("host:port", port 0 for ephemeral) accepts inbound
	// sessions; empty disables listening.
	ListenAddr string
	// ListenWrap, when non-nil, wraps the bound listener before the
	// accept loop runs; the netem fault injector hooks in here to
	// perturb inbound transports.
	ListenWrap func(net.Listener) net.Listener
	// NextHop is the address the router advertises as NEXT_HOP on eBGP
	// exports (next-hop-self) for IPv4 routes. Defaults to ID.
	NextHop netaddr.Addr
	// NextHop6 is the next-hop-self address for IPv6 routes. Defaults to
	// the IPv4-mapped form of ID (::ffff:ID), which keeps dual-stack
	// configs deterministic without extra addressing.
	NextHop6  netaddr.Addr
	Neighbors []NeighborConfig
	// FIBEngine selects the lookup structure ("patricia" default;
	// "poptrie" additionally gets the lock-free snapshot read path).
	FIBEngine string
	// ExportBatch caps prefixes per UPDATE on every emitted run: a new
	// peer's initial table transfer and later changes alike. Default 500.
	ExportBatch int
	// Damping enables route-flap damping (RFC 2439) with the given
	// parameters; nil disables it. Suppressed routes are removed from the
	// decision process until their penalty decays below the reuse limit.
	Damping *damping.Config
	// MRAI, when positive, holds outbound route changes per Adj-RIB-Out
	// table and flushes each prefix's net change at this
	// MinRouteAdvertisementInterval instead of emitting one UPDATE per
	// change (RFC 4271 section 9.2.1.1); a prefix back where the interval
	// found it sends nothing.
	MRAI time.Duration
	// Shards is the number of prefix-sharded decision workers. Each shard
	// owns a disjoint slice of the prefix space (a fixed hash of the
	// prefix), its own Loc-RIB partition, and its own slice of every
	// peer's Adj-RIB-Out, so shards process UPDATE bursts in parallel
	// without cross-shard locking. Defaults to GOMAXPROCS; 1 reproduces
	// the classic single-decision-worker pipeline.
	Shards int
	// UpdateGroups selects the key of the update group a peer is bound to
	// when it registers, and nothing else — every peer is emitted from
	// its group's one Adj-RIB-Out either way. True: the canonical
	// export-policy key (rib.GroupKeyFor), so peers with the same export
	// treatment share a group, each route change is exported once per
	// group, marshaled once, and the bytes fanned out to every member
	// session. False: that key plus the peer's BGP ID, a group per peer.
	// Per-peer digests are the same; only the amount of repeated work
	// differs. See internal/core/emit.go and updategroup.go.
	UpdateGroups bool
}

// peerState is the router-side state for one established neighbour: one
// registration of a peer address, from Established to its teardown on
// the last shard.
//
// A peer is bound at register to the update group whose Adj-RIB-Out it
// is emitted from — possibly a group of one — and the binding never
// changes, so shard workers read it without locking.
type peerState struct {
	info rib.PeerInfo
	cfg  NeighborConfig
	sess *session.Session
	// out is where shard workers send the peer's UPDATEs: its session, or
	// a recorder in socket-free tests. Nothing more is sent to it once
	// the registration is detached — superseded or torn down.
	out      peerOut
	detached atomic.Bool

	group *updateGroup

	// prefixCount tracks the routes this peer currently contributes
	// across all shards, for max-prefix enforcement.
	prefixCount atomic.Int64
	overLimit   atomic.Bool
	// downLeft counts shards that have not yet processed this peer's
	// teardown; the last one performs the final cleanup.
	downLeft atomic.Int32
	// gen orders registrations of the same peer address: the one whose
	// connection the router took on later has the larger gen (nextGen).
	gen uint64
}

// Router is a live BGP speaker: it terminates sessions, applies policy,
// runs the decision process, installs routes into a shared FIB, and
// re-advertises its Loc-RIB to peers. The paper's "router under test".
//
// The decision process is sharded: prefixes hash onto N workers, each
// owning a Loc-RIB partition (rib.Sharded) plus the matching partition of
// every update group's Adj-RIB-Out, so a burst of UPDATEs spreads across
// cores — the pipeline parallelism whose absence the paper measures in
// its single-process software routers. Peer lifecycle events (up, down,
// refresh) fan out to every shard; per-session FIFO dispatch keeps each
// shard's view of a peer ordered (up before its updates before its down).
//
// One identity rule covers every peer work item: it carries the
// *peerState its session registered, and each shard records which
// peerState currently owns a peer address (shard.owner). When a peer
// bounces, two sessions' items for the same address interleave on a
// shard in any order; the successor's Up performs the predecessor's
// teardown there, and whatever the predecessor still had in flight is
// dropped and counted (StalePeerWork) instead of landing on the
// successor's registration. Which of two registrations is the successor
// is decided by the order the router took their connections on, not by
// the order their handshakes happened to finish (see register).
//
// Emission — Loc-RIB change to UPDATEs on a session — is one pipeline
// over one kind of table, run by the same workers (emit.go): every peer
// is a member of an update group, alone in it or not. The only goroutine
// emission adds is the MRAI ticker, one per router.
//
// What the router holds is what is live: a session is forgotten when its
// event loop ends, a group when the last peer registered in it is torn
// down.
type Router struct {
	cfg       Config
	nshards   int
	neighbors map[uint32]NeighborConfig

	rib      *rib.Sharded
	fib      fib.Shared
	fwd      *forward.Engine
	interner *wire.Intern

	listener net.Listener
	shards   []*shard
	done     chan struct{}
	wg       sync.WaitGroup
	damper   *damping.Damper // nil when damping is disabled

	mu       sync.Mutex
	peers    map[netaddr.Addr]*peerState // keyed by peer BGP ID
	peerGen  uint64                      // last value nextGen handed out
	sessions map[*session.Session]bool   // sessions whose event loop runs (for Stop)
	groups   map[string]*updateGroup     // update groups with a registered peer, by group key

	// batchPool recycles dispatchBatch buffers between session handlers
	// and shard workers, so the batched hot path allocates nothing in
	// steady state.
	batchPool       sync.Pool
	dispatchBatches atomic.Uint64 // handler batches dispatched
	dispatchUpdates atomic.Uint64 // UPDATE messages those batches carried
	fibChanges      atomic.Uint64
	stalePeerWork   atomic.Uint64 // peer work items dropped: their peerState no longer owned the address

	// mraiSuppressed counts prefixes an MRAI flush found back where the
	// window had found them; the rest are fan-out counters (see
	// GroupStats).
	mraiSuppressed     atomic.Uint64
	groupRuns          atomic.Uint64
	groupSends         atomic.Uint64
	groupBytesBuilt    atomic.Uint64
	groupBytesSaved    atomic.Uint64
	groupRebuilds      atomic.Uint64
	groupRebuildChunks atomic.Uint64
	rebuildHist        rebuildHist
}

// shard is one decision worker: a work queue, worker-owned scratch
// buffers, and the shard's transaction counter. The counters sit behind
// cache-line padding so pollers reading one shard's counts never bounce
// the line a neighbouring shard's worker is writing.
type shard struct {
	work chan workItem

	// owner maps a peer address to the registration whose routes this
	// shard's RIB currently holds under it: set by that peerState's Up,
	// cleared by its teardown. Worker-owned.
	owner map[netaddr.Addr]*peerState

	// Scratch owned by the shard worker: the FIB batch; the batch's emit
	// buffer and the snapshot of groups to apply changes to (emit.go);
	// and what emission runs are assembled in — an action stream (dacts
	// for a dirty member while acts holds the clean one), a run's
	// prefixes and its marshaled bytes before they are copied out for
	// sharing, the originators in a fan-out, the sessions sharing a
	// stream (empty between uses), and a list of table transitions.
	fibOps       []fib.Op
	emit         emitBuf
	groupScratch []*updateGroup
	acts, dacts  []emitItem
	pfx          []netaddr.Prefix
	wbuf         []byte
	dirty        []netaddr.Addr
	recipients   []*peerState
	gitems       []groupEmitItem
	// importMemo holds one UPDATE's imported attrs per import term
	// (processOneUpdate); reset at the start of every UPDATE.
	importMemo []*wire.PathAttrs

	// catchups is the queue of in-progress chunked group rebuilds and
	// member replays, advanced whenever the work queue idles and forcibly
	// every catchupForceEvery items (busy counts toward the next forced
	// chunk). Worker-owned.
	catchups []*groupCatchup
	busy     int

	_            [64]byte // keep the hot counters on their own line
	transactions atomic.Uint64
	batches      atomic.Uint64
	_            [48]byte
}

type workKind int

const (
	workUpdateBatch workKind = iota
	workPeerUp
	workPeerDown
	workRefresh
	workQuery // answer a barrier query (ask)
	workFlush // close the MRAI window of every group the shard serves
)

type workItem struct {
	kind  workKind
	peer  *peerState        // with workUpdateBatch/PeerUp/PeerDown/Refresh: the registration the item belongs to
	batch *dispatchBatch    // with workUpdateBatch; returned to the pool by the worker
	query func(int, *shard) // with workQuery: run on the worker, given its shard; sends its own reply
}

// dispatchBatch is a pooled multi-update work item: one session handler
// batch's sub-updates for a single shard, processed run-to-completion by
// that shard's worker. The updates slice and its per-element prefix
// buffers keep their capacity across pool round-trips.
type dispatchBatch struct {
	updates []wire.Update
}

// next returns an empty sub-update slot, reusing the slot's prefix
// buffers from earlier round-trips; its Attrs are the caller's to set.
func (b *dispatchBatch) next() *wire.Update {
	if len(b.updates) < cap(b.updates) {
		b.updates = b.updates[:len(b.updates)+1]
	} else {
		b.updates = append(b.updates, wire.Update{})
	}
	u := &b.updates[len(b.updates)-1]
	u.Withdrawn = u.Withdrawn[:0]
	u.NLRI = u.NLRI[:0]
	return u
}

// LocRoute is one row of a Loc-RIB snapshot: the selected route for a
// prefix and the peer it was learned from.
type LocRoute struct {
	Prefix netaddr.Prefix
	Peer   netaddr.Addr
	Attrs  *wire.PathAttrs
}

// AdjRoute is one row of a per-peer Adj-RIB-Out snapshot: a prefix and
// the attributes currently advertised to that peer.
type AdjRoute struct {
	Prefix netaddr.Prefix
	Attrs  *wire.PathAttrs
}

// NewRouter validates the configuration and builds a stopped router.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.AS == 0 {
		return nil, fmt.Errorf("core: router AS must be nonzero")
	}
	if cfg.ID.IsZero() {
		return nil, fmt.Errorf("core: router ID must be nonzero")
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90
	}
	if cfg.NextHop.IsZero() {
		cfg.NextHop = cfg.ID
	}
	if cfg.NextHop6.IsZero() {
		//bgplint:allow(afifamily) reason=the router ID is an IPv4 identifier by RFC 4271
		cfg.NextHop6 = netaddr.AddrFrom128(0, uint64(0xffff)<<32|uint64(cfg.ID.V4()))
	}
	if cfg.FIBEngine == "" {
		cfg.FIBEngine = "patricia"
	}
	if cfg.ExportBatch == 0 {
		cfg.ExportBatch = 500
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: shard count %d must be positive", cfg.Shards)
	}
	neighbors := make(map[uint32]NeighborConfig, len(cfg.Neighbors))
	for _, n := range cfg.Neighbors {
		if _, dup := neighbors[n.AS]; dup {
			return nil, fmt.Errorf("core: duplicate neighbor AS %d", n.AS)
		}
		neighbors[n.AS] = n
	}
	eng, err := fib.NewEngine(cfg.FIBEngine)
	if err != nil {
		return nil, err
	}
	table := fib.NewShared(eng)
	r := &Router{
		cfg:       cfg,
		nshards:   cfg.Shards,
		neighbors: neighbors,
		rib:       rib.NewSharded(cfg.Shards),
		fib:       table,
		fwd:       forward.New(table, nil),
		interner:  wire.NewIntern(),
		shards:    make([]*shard, cfg.Shards),
		done:      make(chan struct{}),
		peers:     make(map[netaddr.Addr]*peerState),
		sessions:  make(map[*session.Session]bool),
		groups:    make(map[string]*updateGroup),
	}
	r.batchPool.New = func() any { return new(dispatchBatch) }
	for i := range r.shards {
		r.shards[i] = &shard{work: make(chan workItem, 8192), owner: make(map[netaddr.Addr]*peerState)}
	}
	if cfg.Damping != nil {
		r.damper = damping.New(*cfg.Damping, nil)
	}
	r.fwd.AddLocalAddr(cfg.ID)
	return r, nil
}

// Damper exposes the flap damper for diagnostics; nil when disabled.
func (r *Router) Damper() *damping.Damper { return r.damper }

// Start begins listening (if configured), dials active neighbours, and
// launches the decision workers.
func (r *Router) Start() error {
	if r.cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", r.cfg.ListenAddr)
		if err != nil {
			return err
		}
		if r.cfg.ListenWrap != nil {
			ln = r.cfg.ListenWrap(ln)
		}
		r.listener = ln
		r.wg.Add(1)
		go r.acceptLoop(ln)
	}
	for i := range r.shards {
		r.wg.Add(1)
		go r.shardWorker(i)
	}
	if r.cfg.MRAI > 0 {
		r.wg.Add(1)
		go r.mraiTicker()
	}
	for _, n := range r.cfg.Neighbors {
		if n.DialTarget != "" {
			r.startSession(n, "")
		}
	}
	return nil
}

// ListenAddr returns the bound listen address ("host:port"), valid after
// Start when ListenAddr was configured.
func (r *Router) ListenAddr() string {
	if r.listener == nil {
		return ""
	}
	return r.listener.Addr().String()
}

// Stop tears down all sessions and stops the router.
func (r *Router) Stop() {
	select {
	case <-r.done:
		return
	default:
	}
	close(r.done)
	if r.listener != nil {
		r.listener.Close()
	}
	r.mu.Lock()
	sessions := make([]*session.Session, 0, len(r.sessions))
	for s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.Stop()
	}
	r.wg.Wait()
}

// FIB exposes the shared forwarding table (read by the data plane).
// Snapshot-capable engines make every method on it wait-free.
func (r *Router) FIB() fib.Shared { return r.fib }

// Forwarder exposes the data-plane engine bound to the router's FIB.
func (r *Router) Forwarder() *forward.Engine { return r.fwd }

// Transactions returns the number of prefix-level routing operations
// (announcements and withdrawals) the router has completed. This is the
// paper's "transactions" numerator. The count lives in per-shard
// counters (each written only by its shard worker) and is folded on
// read, so the hot path never contends on a global atomic.
func (r *Router) Transactions() uint64 {
	var sum uint64
	for _, s := range r.shards {
		sum += s.transactions.Load()
	}
	return sum
}

// FIBChanges returns the number of forwarding-table changes applied.
func (r *Router) FIBChanges() uint64 { return r.fibChanges.Load() }

// Shards returns the number of decision-worker shards.
func (r *Router) Shards() int { return r.nshards }

// ShardStat is an operational snapshot of one decision shard.
type ShardStat struct {
	QueueDepth   int    // work items waiting in the shard's queue
	Transactions uint64 // prefix-level operations completed by the shard
	Batches      uint64 // update work batches the shard has processed
}

// ShardStats returns a snapshot per shard, in shard order.
func (r *Router) ShardStats() []ShardStat {
	out := make([]ShardStat, r.nshards)
	for i, s := range r.shards {
		out[i] = ShardStat{
			QueueDepth:   len(s.work),
			Transactions: s.transactions.Load(),
			Batches:      s.batches.Load(),
		}
	}
	return out
}

// DispatchStats reports how many session-handler batches have been
// dispatched to the shards and how many UPDATE messages they carried;
// updates/batches is the mean coalescing factor.
func (r *Router) DispatchStats() (batches, updates uint64) {
	return r.dispatchBatches.Load(), r.dispatchUpdates.Load()
}

// StalePeerWork counts peer work items (batches, refreshes, downs) a
// shard dropped because a successor session had already taken over the
// peer address: the late tail of a bounced session.
func (r *Router) StalePeerWork() uint64 { return r.stalePeerWork.Load() }

// RIBUnregisteredDrops counts announcements the RIB refused because
// their peer was not registered on the shard. The ownership rule makes
// this unreachable; nonzero means a lifecycle bug.
func (r *Router) RIBUnregisteredDrops() uint64 { return r.rib.UnregisteredDrops() }

// InternStats reports the path-attribute intern table's size and hit rate.
func (r *Router) InternStats() wire.InternStats { return r.interner.Stats() }

// FIBBatchStats reports batched FIB commits and the total ops they
// carried; ops/batches is the mean commit batch size.
func (r *Router) FIBBatchStats() (batches, ops uint64) { return r.fib.BatchStats() }

// ask is the one barrier query: fn runs on every shard worker, behind
// the work queued ahead of it and with that worker's state to itself,
// and the answers come back in no particular order. ok is false once the
// router is stopped.
func ask[T any](r *Router, fn func(si int, s *shard) T) (answers []T, ok bool) {
	replies := make(chan T, r.nshards) // one send per shard, never blocks a worker
	for i := range r.shards {
		if !r.send(i, workItem{kind: workQuery, query: func(si int, s *shard) { replies <- fn(si, s) }}) {
			return nil, false
		}
	}
	for range r.shards {
		select {
		case a := <-replies:
			answers = append(answers, a)
		case <-r.done:
			return nil, false
		}
	}
	return answers, true
}

// RIBLen returns the Loc-RIB size, synchronized through every shard
// worker so queued work ahead of the query is accounted for. Returns -1
// after Stop.
func (r *Router) RIBLen() int {
	lens, ok := ask(r, func(si int, _ *shard) int { return r.rib.Shard(si).Len() })
	if !ok {
		return -1
	}
	total := 0
	for _, n := range lens {
		total += n
	}
	return total
}

// DumpLocRIB snapshots the Loc-RIB across all shards, sorted by prefix.
// Like RIBLen it is a barrier: each shard answers after draining the work
// queued ahead of the request. Returns nil after Stop.
func (r *Router) DumpLocRIB() []LocRoute {
	parts, _ := ask(r, func(si int, _ *shard) (routes []LocRoute) {
		r.rib.Shard(si).WalkLoc(func(p netaddr.Prefix, c rib.Candidate) bool {
			routes = append(routes, LocRoute{Prefix: p, Peer: c.Peer.Addr, Attrs: c.Attrs})
			return true
		})
		return routes
	})
	all := slices.Concat(parts...)
	slices.SortFunc(all, func(a, b LocRoute) int { return a.Prefix.Compare(b.Prefix) })
	return all
}

// DumpAdjOut snapshots the Adj-RIB-Out the router currently advertises
// to the peer with the given BGP ID, sorted by prefix. Like DumpLocRIB
// it is a per-shard barrier; each shard worker walks its own partition,
// so no locking races with the decision process. Returns nil when the
// peer is unknown or the router is stopped.
func (r *Router) DumpAdjOut(peerID netaddr.Addr) []AdjRoute {
	parts, _ := ask(r, func(si int, s *shard) []AdjRoute { return r.adjRoutes(si, s, peerID) })
	all := slices.Concat(parts...)
	slices.SortFunc(all, func(a, b AdjRoute) int { return a.Prefix.Compare(b.Prefix) })
	return all
}

// adjRoutes is shard si's part of a peer's logical Adj-RIB-Out: its
// group's table minus what the peer itself originated. A dump is a
// barrier, so any catch-up still filling the table (or replaying it to a
// member) completes first.
func (r *Router) adjRoutes(si int, s *shard, peerID netaddr.Addr) (routes []AdjRoute) {
	ps := s.owner[peerID]
	if ps == nil {
		return nil
	}
	r.drainGroupCatchups(si, s, ps.group)
	ps.group.shards[si].adjOut.WalkMember(r.rib.Shard(si), peerID, func(p netaddr.Prefix, attrs *wire.PathAttrs) bool {
		routes = append(routes, AdjRoute{Prefix: p, Attrs: attrs})
		return true
	})
	return routes
}

// PeerIDs returns the BGP IDs of the currently established peers in
// sorted order.
func (r *Router) PeerIDs() []netaddr.Addr {
	r.mu.Lock()
	ids := make([]netaddr.Addr, 0, len(r.peers))
	for id := range r.peers {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// send enqueues a work item on shard i, reporting false once the router
// is stopped.
func (r *Router) send(i int, w workItem) bool {
	select {
	case r.shards[i].work <- w:
		return true
	case <-r.done:
		return false
	}
}

// fanOut enqueues a peer lifecycle event on every shard.
func (r *Router) fanOut(kind workKind, ps *peerState) {
	for i := range r.shards {
		if !r.send(i, workItem{kind: kind, peer: ps}) {
			return
		}
	}
}

// dispatchUpdateBatch is the one session→shard path: it splits a
// session-level batch of UPDATEs (a batch of one included) by owning
// shard in one pass and enqueues at most one pooled multi-update work
// item per shard, so dispatch cost amortizes across the batch instead of
// being paid per message. h's split scratch is safe to reuse: session
// callbacks are serialized and each session owns its handler.
func (r *Router) dispatchUpdateBatch(h *routerHandler, us []wire.Update) {
	r.dispatchBatches.Add(1)
	r.dispatchUpdates.Add(uint64(len(us)))
	if h.batches == nil {
		h.batches = make([]*dispatchBatch, r.nshards)
		h.cur = make([]*wire.Update, r.nshards)
	}
	batches, cur := h.batches, h.cur
	for ui := range us {
		u := &us[ui]
		// Each source UPDATE needs its own sub-update per shard (attrs
		// differ between messages); clear the per-shard cursors.
		for i := range cur {
			cur[i] = nil
		}
		for _, p := range u.Withdrawn {
			si := rib.ShardOf(p, r.nshards)
			sub := cur[si]
			if sub == nil {
				if batches[si] == nil {
					//bgplint:allow(pooledbuf) reason=audited ownership transfer: parked in the handler scratch only until the flush loop below sends or Puts it
					batches[si] = r.getBatch()
				}
				sub = batches[si].next()
				sub.Attrs = u.Attrs
				cur[si] = sub
			}
			sub.Withdrawn = append(sub.Withdrawn, p)
		}
		for _, p := range u.NLRI {
			si := rib.ShardOf(p, r.nshards)
			sub := cur[si]
			if sub == nil {
				if batches[si] == nil {
					//bgplint:allow(pooledbuf) reason=audited ownership transfer: parked in the handler scratch only until the flush loop below sends or Puts it
					batches[si] = r.getBatch()
				}
				sub = batches[si].next()
				sub.Attrs = u.Attrs
				cur[si] = sub
			}
			sub.NLRI = append(sub.NLRI, p)
		}
	}
	for i, b := range batches {
		if b == nil {
			continue
		}
		batches[i] = nil
		if !r.send(i, workItem{kind: workUpdateBatch, peer: h.ps, batch: b}) {
			r.putBatch(b)
		}
	}
}

// acceptLoop attaches inbound connections to passive sessions.
func (r *Router) acceptLoop(ln net.Listener) {
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// The neighbour is identified after OPEN by its AS; accept with
		// PeerAS 0 and let sessionUp sort it out.
		s := r.startSession(NeighborConfig{}, "inbound")
		s.Attach(conn)
	}
}

// startSession creates and starts one session. For inbound sessions
// (label != ""), cfg is resolved later from the peer's OPEN.
func (r *Router) startSession(n NeighborConfig, label string) *session.Session {
	passive := n.DialTarget == ""
	name := label
	if name == "" {
		name = fmt.Sprintf("as%d", n.AS)
	}
	s := session.New(session.Config{
		FSM: fsm.Config{
			LocalAS:  r.cfg.AS,
			LocalID:  r.cfg.ID,
			HoldTime: r.cfg.HoldTime,
			PeerAS:   n.AS,
			Passive:  passive,
		},
		DialTarget:      n.DialTarget,
		Handler:         &routerHandler{r: r, gen: r.nextGen()},
		Name:            name,
		BatchMaxUpdates: DefaultBatchMaxUpdates,
	})
	r.mu.Lock()
	r.sessions[s] = true
	r.mu.Unlock()
	s.Start()
	return s
}

// routerHandler adapts session callbacks onto the shard work queues. It
// implements session.BatchHandler, so the session never calls Update,
// and session.FinishHandler, so the router forgets the session when its
// event loop ends.
type routerHandler struct {
	session.NopHandler
	r *Router
	// gen is the session's place in the order the router took its
	// connections on (accept order, for inbound sessions).
	gen uint64
	// ps is the registration Established made for this session; every
	// work item the session produces afterwards carries it.
	ps *peerState
	// Batch-split scratch, reused across UpdateBatch calls. Callbacks are
	// serialized per session and each session owns its handler, so no
	// locking is needed.
	cur     []*wire.Update
	batches []*dispatchBatch
}

// Established registers the peer and schedules the initial table export
// on every shard.
func (h *routerHandler) Established(s *session.Session) {
	r := h.r
	open := s.PeerOpen()
	peerAS := open.EffectiveAS()
	ncfg, ok := r.neighborConfig(peerAS)
	if !ok {
		// Unconfigured peer: terminate. Stop must not run on the session's
		// own event loop, so do it asynchronously.
		go s.Stop()
		return
	}
	info := rib.PeerInfo{
		Addr: open.ID, // loopback benches reuse IPs; the BGP ID is unique
		ID:   open.ID,
		AS:   peerAS,
		EBGP: peerAS != r.cfg.AS,
	}
	ps := r.register(info, ncfg, s.NegotiatedFamilies(), s.FourOctetAS(), h.gen, s)
	if ps == nil {
		// The peer has since connected again — this is the connection it
		// abandoned, finishing its handshake late — or the router is
		// stopping.
		go s.Stop()
		return
	}
	ps.sess = s
	h.ps = ps
	r.fanOut(workPeerUp, ps)
}

// nextGen numbers the connections the router takes on, in order.
func (r *Router) nextGen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peerGen++
	return r.peerGen
}

// register builds the peerState for a newly established peer, sending to
// out, binds it to its update group and makes it the router-level
// registration for the peer's address, superseding and detaching a
// bounced predecessor's. Shards learn of it from its workPeerUp.
//
// It returns nil when the router is stopping, or when the address is
// already registered from a newer connection. Establishment order does
// not say which transport a bounced peer still holds: the connection it
// abandoned can finish its handshake here after its replacement did, and
// would then replace the live registration and tear it down again on its
// own EOF. Connection order does say: a peer dials again only after
// giving the old connection up, so the later connection is the one it
// holds.
func (r *Router) register(info rib.PeerInfo, ncfg NeighborConfig, afis [2]bool, as4 bool, gen uint64, out peerOut) *peerState {
	ps := &peerState{info: info, cfg: ncfg, gen: gen, out: out}
	ps.downLeft.Store(int32(r.nshards))
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.done:
		// Stop has collected the sessions it stops; a peer registered
		// now would outlive it.
		return nil
	default:
	}
	if old, exists := r.peers[info.Addr]; exists {
		if old.gen > gen {
			return nil
		}
		old.detached.Store(true)
	}
	ps.group = r.groupFor(info, ncfg.Export, as4, afis)
	r.peers[info.Addr] = ps
	return ps
}

// UpdateBatch queues a session-level batch of consecutive UPDATEs for
// the decision workers as one per-shard dispatch. h.ps is nil only for
// a session Established refused and is stopping; whatever it still
// delivers is ignored.
func (h *routerHandler) UpdateBatch(_ *session.Session, us []wire.Update) {
	if h.ps != nil {
		h.r.dispatchUpdateBatch(h, us)
	}
}

// Refresh re-sends the peer's Adj-RIB-Out on a ROUTE-REFRESH request
// (RFC 2918).
func (h *routerHandler) Refresh(*session.Session, wire.RouteRefresh) {
	if h.ps != nil {
		h.r.fanOut(workRefresh, h.ps)
	}
}

// Down withdraws the routes of the registration this session made and
// lets go of it.
func (h *routerHandler) Down(*session.Session, error) {
	if h.ps != nil {
		h.r.fanOut(workPeerDown, h.ps)
		h.ps = nil
	}
}

// Finished forgets a session whose event loop has ended: an inbound
// session ends with its connection, so a router that kept them all
// would grow by one per connection ever accepted.
func (h *routerHandler) Finished(s *session.Session) {
	h.r.mu.Lock()
	delete(h.r.sessions, s)
	h.r.mu.Unlock()
}

// peerOut is a peer's outbound target: a session, whose Send and
// SendShared never block, so no slow peer can hold up a shard worker.
type peerOut interface {
	Send(wire.Message) error
	SendShared(update []byte) error
}

// send and sendShared hand one UPDATE to the peer's session unless the
// registration is detached. An error means the session has finished and
// dropped it.
func (ps *peerState) send(m wire.Message) {
	if !ps.detached.Load() {
		_ = ps.out.Send(m)
	}
}

func (ps *peerState) sendShared(update []byte) {
	if !ps.detached.Load() {
		_ = ps.out.SendShared(update)
	}
}

// shardWorker is decision worker i: it owns Loc-RIB shard i and partition
// i of every group's Adj-RIB-Out (the analogue of one xorp_bgp + xorp_rib
// pipeline, replicated per core). Chunked group catch-ups run at idle
// priority: whenever the queue is empty the worker advances the oldest
// catch-up by one bounded chunk, and under sustained load one chunk is
// forced every catchupForceEvery items so catch-ups cannot starve. The
// worker is the sole consumer of its own queue, so catch-up work must
// never be re-enqueued as work items — that could deadlock on a full
// queue.
func (r *Router) shardWorker(i int) {
	defer r.wg.Done()
	s := r.shards[i]
	for {
		if len(s.catchups) > 0 {
			select {
			case <-r.done:
				return
			case w := <-s.work:
				r.handleWork(i, s, w)
				if s.busy++; s.busy >= catchupForceEvery {
					s.busy = 0
					r.runCatchupChunk(i, s)
				}
			default:
				r.runCatchupChunk(i, s)
			}
			continue
		}
		s.busy = 0
		select {
		case <-r.done:
			return
		case w := <-s.work:
			r.handleWork(i, s, w)
		}
	}
}

// handleWork dispatches one work item on shard i's worker.
func (r *Router) handleWork(i int, s *shard, w workItem) {
	switch w.kind {
	case workUpdateBatch:
		if r.owns(s, w.peer) {
			r.processUpdateBatch(i, w.peer, w.batch.updates)
		}
		r.putBatch(w.batch)
	case workPeerUp:
		r.processPeerUp(i, w.peer)
	case workPeerDown:
		if r.owns(s, w.peer) {
			r.processPeerDown(i, w.peer)
		}
	case workRefresh:
		// RFC 2918: the group's table is authoritative; the requester
		// gets a chunked replay of its view of it, and other members
		// are untouched.
		if r.owns(s, w.peer) {
			r.scheduleCatchup(i, w.peer.group, w.peer)
		}
	case workFlush:
		// A group's window closes with the first member that gets here;
		// for the others it is already empty.
		for _, ps := range s.owner {
			r.flushMRAI(i, s, ps.group)
		}
	case workQuery:
		w.query(i, s)
	}
}

// owns reports whether ps is the registration that currently owns its
// peer address on shard s. When it is not, the item being handled is
// the late tail of a bounced session — its successor's Up already tore
// the predecessor down here — and is dropped and counted.
func (r *Router) owns(s *shard, ps *peerState) bool {
	if s.owner[ps.info.Addr] == ps {
		return true
	}
	r.stalePeerWork.Add(1)
	return false
}

// getBatch and putBatch recycle dispatch batches (and, transitively,
// their per-slot prefix buffers) between session handlers and shard
// workers.
func (r *Router) getBatch() *dispatchBatch {
	return r.batchPool.Get().(*dispatchBatch)
}

func (r *Router) putBatch(b *dispatchBatch) {
	// The slots keep their prefix buffers but not the session's attribute
	// slices, which would keep the reader's chunks alive.
	for i := range b.updates {
		b.updates[i].Attrs = wire.PathAttrs{}
	}
	b.updates = b.updates[:0]
	r.batchPool.Put(b)
}

// processPeerUp makes ps the owner of its peer address on shard si —
// first performing the teardown of a predecessor still registered there,
// whose own Down is then stale — registers the peer in the shard's RIB
// and joins it to its group there, which schedules the export of the
// shard's Loc-RIB slice to it (Phase 2 of the benchmark methodology). An
// Up overtaken by a newer registration's Up (the two handlers' fan-outs
// are not ordered against each other) is itself the stale item, and
// since only an Up takes ownership, all this shard will see of ps.
func (r *Router) processPeerUp(si int, ps *peerState) {
	s := r.shards[si]
	if prev := s.owner[ps.info.Addr]; prev != nil {
		if prev.gen > ps.gen {
			r.stalePeerWork.Add(1)
			r.shardDone(ps)
			return
		}
		r.processPeerDown(si, prev)
	}
	s.owner[ps.info.Addr] = ps
	r.rib.Shard(si).AddPeer(ps.info)
	r.joinGroup(si, ps)
}

// processPeerDown releases ps's ownership of its peer address on shard
// si and withdraws everything it contributed there; the last shard to
// finish performs the final peer cleanup. The caller has established
// that ps is the shard's owner, so this runs exactly once per shard per
// registration: from the peer's own Down, or from its successor's Up.
func (r *Router) processPeerDown(si int, ps *peerState) {
	s := r.shards[si]
	delete(s.owner, ps.info.Addr)
	r.leaveGroup(si, ps)
	r.snapshotEmitTargets(s)
	ops := s.fibOps[:0]
	changes := r.rib.Shard(si).RemovePeer(ps.info.Addr)
	for _, ch := range changes {
		r.applyChange(si, ch, &ops, s)
	}
	r.commitFIB(&ops)
	s.fibOps = ops[:0]
	r.flushEmits(si, s)
	if n := uint64(len(changes)); n > 0 {
		s.transactions.Add(n)
	}
	r.shardDone(ps)
}

// shardDone notes that one more shard has seen the last of ps; the last
// one performs the final peer cleanup.
func (r *Router) shardDone(ps *peerState) {
	if ps.downLeft.Add(-1) != 0 {
		return
	}
	r.mu.Lock()
	// Guard against a re-established session having replaced the entry.
	if r.peers[ps.info.Addr] == ps {
		delete(r.peers, ps.info.Addr)
	}
	r.releaseGroup(ps.group)
	r.mu.Unlock()
	ps.detached.Store(true)
	if r.damper != nil {
		r.damper.Forget(ps.info.Addr)
	}
}

// processUpdateBatch runs the decision process over a batch of
// shard-local sub-updates from one peer, run-to-completion: FIB ops,
// Adj-RIB-Out emissions, MRAI merges, and transaction counts accumulate
// across the whole batch and each flushes exactly once at batch end.
func (r *Router) processUpdateBatch(si int, ps *peerState, us []wire.Update) {
	s := r.shards[si]
	r.snapshotEmitTargets(s)
	ops := s.fibOps[:0]
	var tx uint64
	for ui := range us {
		r.processOneUpdate(si, ps, &us[ui], &ops, s, &tx)
	}
	r.commitFIB(&ops)
	s.fibOps = ops[:0]
	r.flushEmits(si, s)
	if tx > 0 {
		s.transactions.Add(tx)
	}
	s.batches.Add(1)
}

// processOneUpdate runs import policy and the decision process on one
// shard-local sub-update, accumulating FIB ops, emissions, and the
// transaction count into the caller's batch state.
func (r *Router) processOneUpdate(si int, ps *peerState, u *wire.Update, ops *[]fib.Op, s *shard, tx *uint64) {
	if ps.overLimit.Load() {
		// Session is being torn down for exceeding its prefix limit;
		// ignore anything still in flight.
		*tx += uint64(len(u.Withdrawn) + len(u.NLRI))
		return
	}
	shardRIB := r.rib.Shard(si)

	for _, p := range u.Withdrawn {
		ch, ok, had := shardRIB.WithdrawHad(ps.info.Addr, p)
		if ok {
			r.applyChange(si, ch, ops, s)
		}
		if had {
			if r.damper != nil {
				r.damper.Flap(ps.info.Addr, p)
			}
			ps.prefixCount.Add(-1)
		}
		*tx++
	}
	if len(u.NLRI) == 0 {
		return
	}
	// Loop detection: reject paths containing our own AS.
	if u.Attrs.ASPath.Contains(r.cfg.AS) {
		*tx += uint64(len(u.NLRI))
		return
	}
	// Every prefix of the message shares its attrs, so the imported attrs
	// depend only on the import term each prefix selects: transform and
	// intern once per term (memo index term+1; index 0 is "no term", the
	// only one a nil policy uses) and share the canonical pointer.
	imp, slots := ps.cfg.Import, 1
	if imp != nil {
		slots += len(imp.Terms)
	}
	if cap(s.importMemo) < slots {
		s.importMemo = make([]*wire.PathAttrs, slots)
	}
	memo := s.importMemo[:slots]
	clear(memo)
	for ni, p := range u.NLRI {
		term, ok := imp.Decide(p, &u.Attrs)
		if !ok {
			*tx++
			continue
		}
		attrs := memo[term+1]
		if attrs == nil {
			if term < 0 {
				// No term: the attrs leave as they came. Interning them
				// directly saves two copies of the block per UPDATE on
				// the no-policy path.
				attrs = r.interner.Intern(u.Attrs)
			} else {
				attrs = r.interner.Intern(imp.Transform(term, u.Attrs))
			}
			memo[term+1] = attrs
		}
		if r.damper != nil && r.dampAnnounce(shardRIB, ps.info.Addr, p, attrs) {
			// Suppressed: the route must not be used; drop any candidate
			// the peer previously contributed.
			if ch, ok := shardRIB.Withdraw(ps.info.Addr, p); ok {
				r.applyChange(si, ch, ops, s)
			}
			*tx++
			continue
		}
		ch, ok, had := shardRIB.AnnounceHad(ps.info.Addr, p, attrs)
		if ok {
			r.applyChange(si, ch, ops, s)
		}
		if !had {
			n := ps.prefixCount.Add(1)
			if ps.cfg.MaxPrefixes > 0 && n > int64(ps.cfg.MaxPrefixes) {
				// Over the limit: administratively stop the session (once).
				// The resulting Down callback withdraws everything the
				// peer contributed.
				if ps.overLimit.CompareAndSwap(false, true) {
					go ps.sess.Stop()
				}
				// The rest of the UPDATE is ignored like whatever else
				// is still in flight, and counted like it.
				*tx += uint64(len(u.NLRI) - ni)
				return
			}
		}
		*tx++
	}
}

// dampAnnounce applies flap accounting to an announcement: a
// re-announcement with changed attributes counts as a flap (RFC 2439
// attribute-change event). It reports whether the route is suppressed.
// Attrs are interned, so the attribute-change check is a pointer compare.
func (r *Router) dampAnnounce(shardRIB *rib.RIB, peer netaddr.Addr, p netaddr.Prefix, attrs *wire.PathAttrs) bool {
	if c, ok := shardRIB.CandidateOf(peer, p); ok && c.Attrs != attrs && !c.Attrs.Equal(*attrs) {
		return r.damper.Flap(peer, p)
	}
	return r.damper.Suppressed(peer, p)
}

// commitFIB flushes accumulated forwarding-table ops as one write-locked
// batch.
func (r *Router) commitFIB(ops *[]fib.Op) {
	if len(*ops) == 0 {
		return
	}
	r.fib.Apply(*ops)
	r.fibChanges.Add(uint64(len(*ops)))
	*ops = (*ops)[:0]
}

// applyChange pushes one Loc-RIB transition toward the FIB batch and
// through the table step of every update group in the shard's snapshot
// scratch.
func (r *Router) applyChange(si int, ch rib.Change, ops *[]fib.Op, s *shard) {
	// Forwarding table: batch the op; the caller commits per batch.
	if ch.New.Attrs != nil {
		if ch.Old.Attrs == nil || ch.Old.Attrs.NextHop != ch.New.Attrs.NextHop {
			entry := fib.Entry{NextHop: ch.New.Attrs.NextHop, Port: int(ch.New.Peer.AS) % 16}
			*ops = append(*ops, fib.Op{Prefix: ch.Prefix, Entry: entry})
		}
	} else if ch.Old.Attrs != nil {
		*ops = append(*ops, fib.Op{Prefix: ch.Prefix, Delete: true})
	}

	for _, g := range s.groupScratch {
		r.applyToTable(si, s, g, ch)
	}
}
