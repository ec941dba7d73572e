package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bgpbench/internal/rib"
)

// TestStoppedRouterIsCollected: once Stop has returned, nothing the
// router started may still reach it. A session timer that outlives its
// session in the runtime's timer heap, holding a closure over the
// session, keeps the session's handler and through it the whole router,
// tables and all. The runtime drops a stopped timer from its heap once
// stopped timers make up a quarter of it, so the test first fills every
// P's heap with timers due in an hour, as a busy process (the benchmark,
// with its generator and set-up routers) does. The finalizer sits on the
// Loc-RIB, which reaches nothing outside itself: the router reaches
// itself through its peer table, and a finalizer on an object in a cycle
// is not guaranteed to run.
func TestStoppedRouterIsCollected(t *testing.T) {
	var ballast []*time.Timer
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				tm := time.AfterFunc(time.Hour, func() {})
				mu.Lock()
				ballast = append(ballast, tm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, tm := range ballast {
			tm.Stop()
		}
	}()

	collected := make(chan struct{})
	sp := func() *testSpeaker {
		r := mustStartRouter(t, testRouterConfig(NeighborConfig{AS: 65001}))
		runtime.SetFinalizer(r.rib, func(*rib.Sharded) { close(collected) })
		sp := dialSpeaker(t, r, 65001, "1.1.1.1")
		sp.announce(t, GenerateTable(TableGenConfig{N: 1, Seed: 1, FirstAS: 65001}), 1)
		waitFor(t, 5*time.Second, func() bool { return r.RIBLen() == 1 })
		r.Stop()
		return sp
	}()
	defer sp.stop()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the stopped router's Loc-RIB was not collected within 5 s")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
