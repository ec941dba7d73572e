package session_test

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// countHandler counts delivered UPDATEs and signals when want arrived,
// and every delivery on each when that is set.
type countHandler struct {
	session.NopHandler
	up   chan struct{}
	want int64
	got  atomic.Int64
	done chan struct{}
	each chan struct{}
}

func (c *countHandler) Established(*session.Session) { c.up <- struct{}{} }

func (c *countHandler) UpdateBatch(_ *session.Session, us []wire.Update) {
	if c.got.Add(int64(len(us))) == c.want {
		close(c.done)
	}
	if c.each != nil {
		c.each <- struct{}{}
	}
}

// BenchmarkSessionReceive measures the session's receive path alone: a
// raw loopback peer writes premarshalled UPDATEs in 4-octet encoding,
// and a passive session batching with the router's constants reads,
// decodes, runs them through the FSM and delivers them to a handler that
// only counts. prefixes=1 and prefixes=500 write a stream of UPDATEs of
// that many prefixes and report ns/msg and allocs/msg. lone writes one
// 1-prefix UPDATE at a time and waits for its delivery before the next:
// its ns/msg is the time from the write to the handler's call, what a
// lone UPDATE waits for at the session layer.
func BenchmarkSessionReceive(b *testing.B) {
	for _, n := range []int{1, 500} {
		b.Run(fmt.Sprintf("prefixes=%d", n), func(b *testing.B) { benchReceive(b, n) })
	}
	b.Run("lone", benchLone)
}

// startReceiver starts a passive session with handler h and a raw
// loopback peer that has completed the handshake as a 4-octet-AS
// speaker, so UPDATEs travel in the encoding the benchmark's speakers
// use. Both are closed when the benchmark ends.
func startReceiver(b *testing.B, h *countHandler) net.Conn {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	s := session.New(session.Config{
		FSM: fsm.Config{
			LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
			HoldTime: 90, Passive: true,
		},
		Handler:         h,
		Name:            "receiver",
		BatchMaxUpdates: core.DefaultBatchMaxUpdates,
	})
	s.Start()
	b.Cleanup(s.Stop)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { raw.Close() })
	conn, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	s.Attach(conn)

	caps, err := wire.MarshalCapabilities(session.DefaultCapabilities(65001))
	if err != nil {
		b.Fatal(err)
	}
	open := wire.NewOpen(65001, 90, netaddr.MustParseAddr("1.1.1.1"))
	open.OptParams = caps
	w := wire.NewWriter(raw)
	if err := w.WriteMessage(open); err != nil {
		b.Fatal(err)
	}
	if err := w.WriteMessage(wire.Keepalive{}); err != nil {
		b.Fatal(err)
	}
	select {
	case <-h.up:
	case <-time.After(5 * time.Second):
		b.Fatal("session did not establish")
	}
	if !s.FourOctetAS() {
		b.Fatal("session did not negotiate 4-octet ASNs")
	}
	return raw
}

// benchUpdate returns the i-th UPDATE of n prefixes, framed in 4-octet
// encoding.
func benchUpdate(b *testing.B, i, n int) []byte {
	u := wire.Update{
		Attrs: wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 64512, 70000), netaddr.MustParseAddr("10.0.0.1")),
	}
	for j := i * n; j < (i+1)*n; j++ {
		u.NLRI = append(u.NLRI, netaddr.PrefixFrom(netaddr.AddrFrom4(10, byte(j>>8), byte(j), 0), 24))
	}
	m, err := wire.AppendMessageMode(nil, u, true)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchReceive runs BenchmarkSessionReceive with n prefixes per UPDATE.
func benchReceive(b *testing.B, n int) {
	h := &countHandler{up: make(chan struct{}, 1), want: int64(b.N), done: make(chan struct{})}
	raw := startReceiver(b, h)

	// One block of UPDATEs of equal length and distinct prefixes, written
	// as often as b.N needs.
	blockMsgs := min(1024, 65536/n)
	var block []byte
	for i := 0; i < blockMsgs; i++ {
		block = append(block, benchUpdate(b, i, n)...)
	}
	msgLen := len(block) / blockMsgs

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	start := time.Now()
	go func() {
		for left := b.N; left > 0; left -= blockMsgs {
			if _, err := raw.Write(block[:min(left, blockMsgs)*msgLen]); err != nil {
				return
			}
		}
	}()
	select {
	case <-h.done:
	case <-time.After(time.Minute):
		b.Fatalf("delivered %d of %d UPDATEs", h.got.Load(), b.N)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/msg")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "allocs/msg")
}

// benchLone runs BenchmarkSessionReceive's lone case.
func benchLone(b *testing.B) {
	h := &countHandler{up: make(chan struct{}, 1), want: -1, done: make(chan struct{}), each: make(chan struct{}, 1)}
	raw := startReceiver(b, h)
	msg := benchUpdate(b, 0, 1)
	timeout := time.NewTimer(time.Minute)
	defer timeout.Stop()
	var waited time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := raw.Write(msg); err != nil {
			b.Fatal(err)
		}
		select {
		case <-h.each:
		case <-timeout.C:
			b.Fatalf("delivered %d of %d UPDATEs", h.got.Load(), b.N)
		}
		waited += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(waited.Nanoseconds())/float64(b.N), "ns/msg")
}
