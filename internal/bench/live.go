package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/dataplane"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
	"bgpbench/internal/packet"
	"bgpbench/internal/wire"
)

// LiveConfig parameterizes a live benchmark run against the Go router —
// the "fifth system" next to the four modeled ones.
type LiveConfig struct {
	// TableSize is the routing-table size in prefixes (default 10000).
	TableSize int
	// Seed makes the workload deterministic.
	Seed int64
	// FIBEngine selects the router's lookup structure (default patricia).
	FIBEngine string
	// CrossWorkers, when positive, runs that many goroutines saturating
	// the router's forwarding engine with packets during the measured
	// phase — the live analogue of the paper's cross-traffic.
	CrossWorkers int
	// CrossPPS, when positive, instead drives a rate-controlled packet
	// source through a parallel data plane sharing the router's FIB —
	// the live analogue of Figure 5's controlled cross-traffic levels.
	// Ignored when CrossWorkers is set.
	CrossPPS float64
	// Shards sets the router's decision-worker count (0 = GOMAXPROCS,
	// 1 = the classic single-worker pipeline). Sweeping this measures how
	// the fifth system scales where the paper's four could not.
	Shards int
	// Timeout bounds each phase. Zero scales the deadline with the table
	// size (see scaledTimeout) so full-DFZ runs don't inherit the flat
	// small-table default.
	Timeout time.Duration
	// FaultProfile, when non-empty and not "clean", wraps both speakers'
	// transports in the named netem fault profile (real clock, so
	// latency/stall shaping costs wall time). Speakers run with
	// journal-replay reconnection so the scenario still completes.
	FaultProfile string
	// FaultSeed seeds the fault schedule (default: Seed).
	FaultSeed int64
	// AFI selects the workload's address-family mix: "" or "v4" (the
	// historical IPv4 workload), "v6", or "dual" (half IPv4, half IPv6
	// over the same sessions). See familyTable.
	AFI string
}

func (c *LiveConfig) defaults() {
	if c.TableSize == 0 {
		c.TableSize = 10000
	}
	if c.Timeout == 0 {
		c.Timeout = scaledTimeout(c.TableSize)
	}
	if c.FIBEngine == "" {
		c.FIBEngine = "patricia"
	}
}

// scaledTimeout derives a phase deadline from the table size: the
// historical 120s floor, plus 250µs of budget per prefix beyond the
// first 100k. Flat defaults were tuned for 5-20k-prefix tables and made
// full-DFZ runs (1M prefixes through 100 sessions) fail on the clock
// rather than on correctness; scaling keeps small-table runs identical
// while giving a 1M-prefix run a ~345s ceiling.
func scaledTimeout(n int) time.Duration {
	base := 120 * time.Second
	if n > 100_000 {
		base += time.Duration(n-100_000) * 250 * time.Microsecond
	}
	return base
}

// LiveResult reports one live scenario execution.
type LiveResult struct {
	Scenario Scenario
	Prefixes int
	// AFI echoes the workload's address-family mix ("" = v4).
	AFI string
	// Shards is the decision-worker count the router actually ran with.
	Shards   int
	Duration time.Duration
	// TPS is prefix transactions per second of the measured phase.
	TPS float64
	// FwdPacketsPerSec is the forwarding throughput sustained during the
	// measured phase when CrossWorkers > 0.
	FwdPacketsPerSec float64
	// FIBChanges observed during the whole run (sanity: scenarios 5-6 must
	// not add changes in Phase 3).
	FIBChanges uint64
	// FaultProfile and Faults report the fault regime the run executed
	// under; Retries counts speaker reconnections.
	FaultProfile string
	Faults       netem.StatsSnapshot
	Retries      uint64
}

const (
	liveRouterAS   = 65000
	liveSpeaker1AS = 65001
	liveSpeaker2AS = 65002
)

// basePathFor returns the uniform AS path Speaker 1 announces with: long
// enough (4 hops) that Scenario 7/8's shortened variants are strictly
// shorter and Scenario 5/6's lengthened variants strictly longer.
func basePathFor() wire.ASPath {
	return wire.NewASPath(liveSpeaker1AS, 100, 101, 102)
}

// RunLive executes one benchmark scenario against a freshly started Go
// router over loopback TCP and returns the measured transactions/second.
func RunLive(scn Scenario, cfg LiveConfig) (LiveResult, error) {
	cfg.defaults()
	out := LiveResult{Scenario: scn, FaultProfile: cfg.FaultProfile, AFI: cfg.AFI}

	table, err := familyTable(cfg.AFI, cfg.TableSize, cfg.Seed)
	if err != nil {
		return out, err
	}

	// Optional fault injection on both speaker transports. The live
	// benchmark measures wall-clock TPS, so the injector runs on the
	// real clock (unlike conformance runs, which use the virtual one).
	var inj *netem.Injector
	faulty := cfg.FaultProfile != "" && cfg.FaultProfile != "clean"
	if cfg.FaultProfile != "" {
		profile, ok := netem.ProfileByName(cfg.FaultProfile)
		if !ok {
			return out, fmt.Errorf("live %s: unknown fault profile %q", scn, cfg.FaultProfile)
		}
		profile.Seed = cfg.FaultSeed
		if profile.Seed == 0 {
			profile.Seed = cfg.Seed
		}
		inj = netem.NewInjector(profile, netem.NewRealClock())
	}

	tb, err := startTestbed(testbedConfig{FIBEngine: cfg.FIBEngine, Shards: cfg.Shards, Inj: inj, Reconnect: faulty})
	if err != nil {
		return out, err
	}
	defer tb.stop()
	router := tb.router
	out.Shards = router.Shards()

	// The generated table (built above) shares one AS path so that
	// large-packet runs actually pack 500 prefixes per UPDATE (the
	// paper's large packets carry one attribute block for 500 NLRI
	// entries). The timed phase runs from its first UPDATE to its
	// settled markers, under the optional cross-load.
	var fibBefore uint64
	err = runPhases(scn, tb, table, cfg.Seed, cfg.Timeout, func(run func() error) error {
		fibBefore = router.FIBChanges()
		stopCross, fwdRate := startCross(router, cfg)
		defer stopCross()
		start := time.Now()
		if err := run(); err != nil {
			return err
		}
		out.Duration = time.Since(start)
		stopCross()
		out.FwdPacketsPerSec = fwdRate()
		out.Prefixes = len(table)
		out.TPS = float64(len(table)) / out.Duration.Seconds()
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("live %s: %w", scn, err)
	}
	// Session flaps legitimately churn the forwarding table (withdraw
	// on down, re-add on replay), so the no-change invariant only
	// holds on clean transports. The phase's markers, one per shard, are
	// its only inserts.
	if !faulty && scn.Op == OpIncrementalNoChange && router.FIBChanges() != fibBefore+uint64(out.Shards) {
		return out, fmt.Errorf("live %s: forwarding table changed (%d -> %d, markers included) in a no-change scenario",
			scn, fibBefore, router.FIBChanges())
	}
	out.FIBChanges = router.FIBChanges()
	out.Retries = tb.retries()
	if inj != nil {
		out.Faults = inj.Stats()
	}
	return out, nil
}

// startCross selects the configured cross-traffic mode.
func startCross(router *core.Router, cfg LiveConfig) (stop func(), rate func() float64) {
	if cfg.CrossWorkers > 0 {
		return startCrossLoad(router, cfg.CrossWorkers)
	}
	if cfg.CrossPPS > 0 {
		return startCrossRate(router, cfg.CrossPPS)
	}
	return func() {}, func() float64 { return 0 }
}

// startCrossRate drives a rate-controlled source through a parallel data
// plane sharing the router's FIB.
func startCrossRate(router *core.Router, pps float64) (stop func(), rate func() float64) {
	plane, err := dataplane.New(dataplane.Config{
		Workers:    2,
		QueueDepth: 8192,
		FIB:        router.FIB(),
	})
	if err != nil {
		return func() {}, func() float64 { return 0 }
	}
	plane.Start()
	src := dataplane.NewSource(plane, pps, 1000)
	start := time.Now()
	src.Start()
	var window time.Duration
	var once sync.Once
	return func() {
			once.Do(func() {
				src.Stop()
				plane.Stop()
				window = time.Since(start)
			})
		}, func() float64 {
			if window <= 0 {
				return 0
			}
			return float64(plane.Stats().Forwarded+plane.Stats().DropNoRoute) / window.Seconds()
		}
}

// startCrossLoad saturates the router's forwarding engine with workers
// goroutines; the returned stop function halts them and rate() reports the
// mean forwarded packets/second over the load window.
func startCrossLoad(router *core.Router, workers int) (stop func(), rate func() float64) {
	if workers <= 0 {
		return func() {}, func() float64 { return 0 }
	}
	var done atomic.Bool
	var forwarded atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	fwd := router.Forwarder()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			// Pre-build a template packet; rewrite the destination per
			// iteration (cheap xorshift) and restore TTL/checksum fields.
			x := seed | 1
			for !done.Load() {
				for i := 0; i < 256; i++ {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					pkt := packet.Marshal(packet.Header{
						TTL:      16,
						Protocol: 17,
						Src:      netaddr.AddrFrom4(172, 16, byte(x>>8), byte(x)),
						Dst:      netaddr.AddrFromV4(x),
					}, nil)
					fwd.Process(pkt)
				}
				forwarded.Add(256)
			}
		}(uint32(w)*2654435761 + 12345)
	}
	var window time.Duration
	return func() {
			if done.CompareAndSwap(false, true) {
				wg.Wait()
				window = time.Since(start)
			}
		}, func() float64 {
			if window <= 0 {
				return 0
			}
			return float64(forwarded.Load()) / window.Seconds()
		}
}
