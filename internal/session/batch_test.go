package session

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bgpbench/internal/fsm"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// batchCollector is a collector that also implements BatchHandler,
// recording each delivered batch.
type batchCollector struct {
	*collector
	batches chan []wire.Update
}

func newBatchCollector() *batchCollector {
	return &batchCollector{collector: newCollector(), batches: make(chan []wire.Update, 4096)}
}

func (c *batchCollector) UpdateBatch(_ *Session, us []wire.Update) {
	// The batch slice is only valid during the callback; copy it out.
	c.batches <- append([]wire.Update(nil), us...)
}

// startBatchPair wires an active (unbatched) session to a passive one
// configured for batched delivery.
func startBatchPair(t *testing.T, maxUpdates int, maxDelay time.Duration) (active *Session, bc *batchCollector, cleanup func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ac := newCollector()
	bc = newBatchCollector()
	passive := New(Config{
		FSM: fsm.Config{
			LocalAS: 65002, LocalID: netaddr.MustParseAddr("2.2.2.2"),
			HoldTime: 90, Passive: true,
		},
		Handler:         bc,
		Name:            "passive-batch",
		BatchMaxUpdates: maxUpdates,
		BatchMaxDelay:   maxDelay,
	})
	passive.Start()

	acceptErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		passive.Attach(conn)
		acceptErr <- nil
	}()

	active = New(Config{
		FSM: fsm.Config{
			LocalAS: 65001, LocalID: netaddr.MustParseAddr("1.1.1.1"),
			HoldTime: 90,
		},
		DialTarget: ln.Addr().String(),
		Handler:    ac,
		Name:       "active",
	})
	active.Start()

	waitEstablished(t, ac, "active")
	waitEstablished(t, bc.collector, "passive")
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	cleanup = func() {
		active.Stop()
		passive.Stop()
		ln.Close()
	}
	return active, bc, cleanup
}

func testPrefix(i int) netaddr.Prefix {
	return netaddr.PrefixFrom(netaddr.AddrFromV4(uint32(i)<<10), 22)
}

// TestBatchedDelivery: a BatchHandler must receive every UPDATE exactly
// once, in arrival order, with no batch exceeding BatchMaxUpdates, and
// none of them via the plain Update callback. A bound of one is the
// degenerate case: per-message delivery, still through UpdateBatch.
func TestBatchedDelivery(t *testing.T) {
	for _, maxBatch := range []int{1, 8} {
		t.Run(fmt.Sprintf("max=%d", maxBatch), func(t *testing.T) {
			active, bc, cleanup := startBatchPair(t, maxBatch, time.Millisecond)
			defer cleanup()

			const n = 500
			attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001), netaddr.MustParseAddr("10.0.0.1"))
			for i := 0; i < n; i++ {
				u := wire.Update{Attrs: attrs, NLRI: []netaddr.Prefix{testPrefix(i)}}
				if err := active.Send(u); err != nil {
					t.Fatal(err)
				}
			}

			got := 0
			deadline := time.After(10 * time.Second)
			for got < n {
				select {
				case batch := <-bc.batches:
					if len(batch) == 0 || len(batch) > maxBatch {
						t.Fatalf("batch size %d, want 1..%d", len(batch), maxBatch)
					}
					for _, u := range batch {
						if len(u.NLRI) != 1 || u.NLRI[0] != testPrefix(got) {
							t.Fatalf("update %d out of order: got %v, want %v", got, u.NLRI, testPrefix(got))
						}
						got++
					}
				case u := <-bc.updates:
					t.Fatalf("plain Update callback fired (%v) despite BatchHandler", u.NLRI)
				case <-deadline:
					t.Fatalf("received %d/%d updates", got, n)
				}
			}
		})
	}
}

// TestBatchLoneUpdateLatency: with a batch bound far above one message
// and a BatchMaxDelay of an hour, a lone UPDATE must still be delivered
// within a second: a read's UPDATEs are delivered when the read is
// handled, and BatchMaxDelay holds nothing back.
func TestBatchLoneUpdateLatency(t *testing.T) {
	active, bc, cleanup := startBatchPair(t, 100000, time.Hour)
	defer cleanup()

	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001), netaddr.MustParseAddr("10.0.0.1"))
	if err := active.Send(wire.Update{Attrs: attrs, NLRI: []netaddr.Prefix{testPrefix(1)}}); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bc.batches:
		if len(batch) != 1 {
			t.Fatalf("batch size %d, want 1", len(batch))
		}
	case <-time.After(time.Second):
		t.Fatal("lone update not delivered within 1 s")
	}
}

// TestBatchFlushBeforeDown: UPDATEs received before the peer closes the
// session must all be delivered, and before the Down callback.
func TestBatchFlushBeforeDown(t *testing.T) {
	active, bc, cleanup := startBatchPair(t, 100000, time.Hour)
	defer cleanup()

	const n = 5
	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001), netaddr.MustParseAddr("10.0.0.1"))
	for i := 0; i < n; i++ {
		if err := active.Send(wire.Update{Attrs: attrs, NLRI: []netaddr.Prefix{testPrefix(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the passive loop time to take in all n, then tear the session
	// down; the hour-long BatchMaxDelay must hold none of them back.
	time.Sleep(200 * time.Millisecond)
	active.Stop()

	got := 0
	deadline := time.After(10 * time.Second)
	for {
		select {
		case batch := <-bc.batches:
			got += len(batch)
		case <-bc.downs:
			// Down must arrive after every queued update. Both channels
			// are buffered, so select can see Down first even though the
			// batch was sent before it: count what is already queued.
			for queued := true; queued; {
				select {
				case batch := <-bc.batches:
					got += len(batch)
				default:
					queued = false
				}
			}
			if got != n {
				t.Fatalf("Down before flush: %d/%d updates delivered", got, n)
			}
			return
		case <-deadline:
			t.Fatalf("no Down callback; %d/%d updates", got, n)
		}
	}
}
