package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/fib"
	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/rib"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// staged holds what each layer costs when it is handed the workload's exact
// stream on its own: one goroutine, no router, no queues between layers.
// Their sum against the live run's CPU per transaction says how much of
// the router's time the layers themselves explain.
type staged struct {
	wireParseNs, wireMarshalNs         float64 // per prefix
	wireParseAllocs, wireMarshalAllocs float64 // per message
	wireBytes                          float64 // per prefix

	sessionDeliverNs  float64 // per message, socket write to handler
	sessionPerBatch   float64 // UPDATEs per BatchHandler call
	sessionMsgsPerPfx float64

	policyImportNs, policyExportNs float64 // per route
	policyPermit                   float64

	ribAnnounceNs, ribWithdrawNs float64 // per prefix
	ribDecisions, ribChange      float64 // per prefix

	fibApplyNs, fibLookupNs float64
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay runs every stage over one announce pass and one withdraw pass.
// shards is the router's effective shard count, fibBatch the mean FIB commit
// size the live run saw (so the isolated FIB commits in the same grain).
func replay(in *inputs, shards, fibBatch int, tr *tracer, root int) (staged, error) {
	var st staged
	stage := func(name string, f func()) time.Duration {
		id := tr.open(name, root, -1)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.end(id)
		return d
	}
	msgs := in.updates()
	prefixes := float64(in.announce.prefixes() + in.withdraw.prefixes())
	nmsgs := float64(len(msgs))
	st.sessionMsgsPerPfx = nmsgs / prefixes

	// wire: marshal the stream as a negotiated 4-octet-AS session does,
	// then parse the bytes back. A sizing pass keeps buffer growth out of
	// the timed one.
	var size int
	var scratch []byte
	for _, u := range msgs {
		b, err := wire.AppendMessageMode(scratch[:0], u, true)
		if err != nil {
			return st, fmt.Errorf("wire marshal: %w", err)
		}
		scratch = b
		size += len(b)
	}
	buf := make([]byte, 0, size)
	ends := make([]int, 0, len(msgs))
	m0 := mallocs()
	d := stage("wire.marshal", func() {
		for _, u := range msgs {
			buf, _ = wire.AppendMessageMode(buf, u, true)
			ends = append(ends, len(buf))
		}
	})
	st.wireMarshalAllocs = float64(mallocs()-m0) / nmsgs
	st.wireMarshalNs = float64(d.Nanoseconds()) / prefixes
	st.wireBytes = float64(size) / prefixes

	var parseErr error
	m0 = mallocs()
	d = stage("wire.parse", func() {
		start := 0
		for _, end := range ends {
			b := buf[start:end]
			start = end
			_, typ, err := wire.ParseHeader(b)
			if err == nil {
				_, err = wire.ParseBodyMode(typ, b[wire.HeaderLen:], true)
			}
			if err != nil {
				parseErr = err
				return
			}
		}
	})
	if parseErr != nil {
		return st, fmt.Errorf("wire parse: %w", parseErr)
	}
	st.wireParseAllocs = float64(mallocs()-m0) / nmsgs
	st.wireParseNs = float64(d.Nanoseconds()) / prefixes

	// session: the stream through a loopback session pair configured as
	// the router configures its side, with a handler that only counts.
	d, batches, err := sessionReplay(msgs, int(prefixes), stage)
	if err != nil {
		return st, fmt.Errorf("session replay: %w", err)
	}
	st.sessionDeliverNs = float64(d.Nanoseconds()) / nmsgs
	st.sessionPerBatch = ratio(nmsgs, float64(batches))

	// policy: the route-maps over the table's routes (nothing to do, and
	// reported 0, on workloads without them).
	if in.importMap != nil {
		permitted, applied := 0, 0
		imported := make([]wire.PathAttrs, len(in.routes))
		d = stage("policy.import", func() {
			for i, r := range in.routes {
				a, ok := in.importMap.Apply(r.Prefix, wire.NewPathAttrs(wire.OriginIGP, r.Path, in.nextHop))
				imported[i] = a
				applied++
				if ok {
					permitted++
				}
			}
		})
		st.policyImportNs = float64(d.Nanoseconds()) / float64(len(in.routes))
		d = stage("policy.export", func() {
			for i, r := range in.routes {
				_, ok := in.exportMap.Apply(r.Prefix, imported[i])
				applied++
				if ok {
					permitted++
				}
			}
		})
		st.policyExportNs = float64(d.Nanoseconds()) / float64(len(in.routes))
		st.policyPermit = ratio(float64(permitted), float64(applied))
	}

	// rib: the decision process alone, attributes interned beforehand as
	// the router hands them over.
	table := rib.NewSharded(shards)
	injector := rib.PeerInfo{Addr: injectorID, ID: injectorID, AS: injectorAS, EBGP: true}
	receiver := rib.PeerInfo{Addr: receiverID, ID: receiverID, AS: receiverAS, EBGP: true}
	for i := 0; i < shards; i++ {
		table.Shard(i).AddPeer(injector)
		table.Shard(i).AddPeer(receiver)
	}
	intern := wire.NewIntern()
	from := injector.Addr
	if in.w.losers {
		from = receiver.Addr
		for _, r := range in.table {
			a := intern.Intern(wire.NewPathAttrs(wire.OriginIGP, r.Path, injectorID))
			table.ShardFor(r.Prefix).Announce(injector.Addr, r.Prefix, a)
		}
	}
	attrs := make([]*wire.PathAttrs, len(in.routes))
	for i, r := range in.routes {
		a, _ := in.importMap.Apply(r.Prefix, wire.NewPathAttrs(wire.OriginIGP, r.Path, in.nextHop))
		attrs[i] = intern.Intern(a)
	}
	changes := 0
	dec0 := table.Decisions()
	d = stage("rib.announce", func() {
		for i, r := range in.routes {
			if _, ok := table.ShardFor(r.Prefix).Announce(from, r.Prefix, attrs[i]); ok {
				changes++
			}
		}
	})
	st.ribAnnounceNs = float64(d.Nanoseconds()) / float64(len(in.routes))
	d = stage("rib.withdraw", func() {
		for _, r := range in.routes {
			if _, ok := table.ShardFor(r.Prefix).Withdraw(from, r.Prefix); ok {
				changes++
			}
		}
	})
	st.ribWithdrawNs = float64(d.Nanoseconds()) / float64(len(in.routes))
	st.ribDecisions = float64(table.Decisions()-dec0) / prefixes
	st.ribChange = float64(changes) / prefixes

	// fib: the router's default engine behind its shared table, committed
	// in batches of the size the live run produced.
	eng, err := fib.NewEngine("patricia")
	if err != nil {
		return st, err
	}
	shared := fib.NewShared(eng)
	if fibBatch < 1 {
		fibBatch = 1
	}
	ops := make([]fib.Op, len(in.routes))
	apply := func() {
		for i := 0; i < len(ops); i += fibBatch {
			shared.Apply(ops[i:min(i+fibBatch, len(ops))])
		}
	}
	for i, r := range in.routes {
		ops[i] = fib.Op{Prefix: r.Prefix, Entry: fib.Entry{NextHop: in.nextHop, Port: injectorAS % 16}}
	}
	d = stage("fib.apply", apply)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]netaddr.Addr, len(in.routes))
	for i, r := range in.routes {
		addrs[i] = r.Prefix.Host(rng.Uint64())
	}
	misses := 0
	dl := stage("fib.lookup", func() {
		for _, a := range addrs {
			if _, ok := shared.Lookup(a); !ok {
				misses++
			}
		}
	})
	if misses > 0 {
		return st, fmt.Errorf("fib lookup: %d of %d installed destinations missed", misses, len(addrs))
	}
	st.fibLookupNs = float64(dl.Nanoseconds()) / float64(len(addrs))
	for i := range ops {
		ops[i].Delete = true
	}
	d += stage("fib.apply", apply)
	if shared.Len() != 0 {
		return st, fmt.Errorf("fib replay left %d entries", shared.Len())
	}
	st.fibApplyNs = float64(d.Nanoseconds()) / (2 * float64(len(ops)))
	return st, nil
}

// countHandler is the passive end of the session replay.
type countHandler struct {
	session.NopHandler
	up      chan struct{}
	want    int64
	got     atomic.Int64
	batches atomic.Int64
	done    chan time.Time
}

func (c *countHandler) Established(*session.Session) { c.up <- struct{}{} }

func (c *countHandler) UpdateBatch(_ *session.Session, us []wire.Update) {
	c.batches.Add(1)
	n := 0
	for i := range us {
		n += len(us[i].NLRI) + len(us[i].Withdrawn)
	}
	if c.got.Add(int64(n)) == c.want {
		c.done <- time.Now()
	}
}

// sessionReplay sends msgs through one loopback connection between an
// active session and a passive one batching like the router's, and times
// first Send to last prefix delivered.
func sessionReplay(msgs []wire.Update, prefixes int, stage func(string, func()) time.Duration) (time.Duration, int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	h := &countHandler{up: make(chan struct{}, 1), want: int64(prefixes), done: make(chan time.Time, 1)}
	passive := session.New(session.Config{
		FSM:             fsm.Config{LocalAS: routerAS, LocalID: routerID, HoldTime: 90, Passive: true},
		Handler:         h,
		Name:            "replay-passive",
		BatchMaxUpdates: core.DefaultBatchMaxUpdates,
		BatchMaxDelay:   core.DefaultBatchMaxDelay,
	})
	passive.Start()
	defer passive.Stop()
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			passive.Attach(conn)
		}
		accepted <- err
	}()
	active := newPeer("replay-active", injectorAS, injectorID, ln.Addr().String())
	defer active.sess.Stop()
	if err := active.connect(); err != nil {
		return 0, 0, err
	}
	if err := <-accepted; err != nil {
		return 0, 0, err
	}
	select {
	case <-h.up:
	case <-time.After(10 * time.Second):
		return 0, 0, fmt.Errorf("passive session not established")
	}
	var sendErr error
	lost := false
	d := stage("session.deliver", func() {
		for _, u := range msgs {
			if sendErr = active.sess.Send(u); sendErr != nil {
				return
			}
		}
		select {
		case <-h.done:
		case <-time.After(phaseDeadline):
			lost = true
		}
	})
	if sendErr != nil {
		return 0, 0, sendErr
	}
	if lost {
		return 0, 0, fmt.Errorf("delivered %d of %d prefixes", h.got.Load(), prefixes)
	}
	return d, h.batches.Load(), nil
}
