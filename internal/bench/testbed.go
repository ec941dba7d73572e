package bench

import (
	"fmt"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
	"bgpbench/internal/policy"
	"bgpbench/internal/speaker"
)

// testbedConfig is what varies between the harnesses that stand the
// paper's Fig. 1 topology up: the router knobs they sweep, how many
// receive-only peers watch and under which export policy, and whether
// the transports are fault-injected.
type testbedConfig struct {
	FIBEngine    string
	Shards       int
	UpdateGroups bool
	// Receivers is the number of receive-only peers (AS receiverAS(i),
	// ID receiverID(i)); ReceiverPolicy gives receiver i's export policy.
	Receivers      int
	ReceiverPolicy func(i int) *policy.RouteMap
	// Inj, when non-nil, wraps every speaker transport; Reconnect makes
	// the speakers survive the session flaps it causes.
	Inj       *netem.Injector
	Reconnect bool
}

// testbed is Fig. 1 running: the router under test over loopback TCP,
// Speaker 1 connected, the receive-only peers connected, and Speaker 2
// once Phase 2 has brought it up.
type testbed struct {
	cfg       testbedConfig
	router    *core.Router
	sp1       *speaker.Speaker
	receivers []*speaker.Speaker
	speakers  []*speaker.Speaker // every speaker connected so far, Speaker 2 included
}

// startTestbed starts the router and connects Speaker 1 and the
// receivers. On success the caller owns the testbed and defers stop.
func startTestbed(cfg testbedConfig) (*testbed, error) {
	neighbors := []core.NeighborConfig{{AS: liveSpeaker1AS}, {AS: liveSpeaker2AS}}
	for i := 0; i < cfg.Receivers; i++ {
		neighbors = append(neighbors, core.NeighborConfig{AS: receiverAS(i), Export: cfg.ReceiverPolicy(i)})
	}
	router, err := core.NewRouter(core.Config{
		AS:           liveRouterAS,
		ID:           netaddr.MustParseAddr("10.255.0.1"),
		ListenAddr:   "127.0.0.1:0",
		FIBEngine:    cfg.FIBEngine,
		Shards:       cfg.Shards,
		UpdateGroups: cfg.UpdateGroups,
		Neighbors:    neighbors,
	})
	if err != nil {
		return nil, err
	}
	if err := router.Start(); err != nil {
		return nil, err
	}
	tb := &testbed{cfg: cfg, router: router}
	if tb.sp1, err = tb.connect(liveSpeaker1AS, netaddr.MustParseAddr("1.1.1.1"), "speaker1"); err != nil {
		tb.stop()
		return nil, err
	}
	// Receive-only peers never announce; they just watch the run.
	for i := 0; i < cfg.Receivers; i++ {
		rc, err := tb.connect(receiverAS(i), receiverID(i), fmt.Sprintf("recv%d", i))
		if err != nil {
			tb.stop()
			return nil, err
		}
		tb.receivers = append(tb.receivers, rc)
	}
	return tb, nil
}

// connect brings one speaker's session to the router up and makes it
// part of the testbed.
func (tb *testbed) connect(as uint32, id netaddr.Addr, name string) (*speaker.Speaker, error) {
	cfg := speaker.Config{AS: as, ID: id, Target: tb.router.ListenAddr(), Name: name, Reconnect: tb.cfg.Reconnect}
	if tb.cfg.Inj != nil {
		cfg.Dial = tb.cfg.Inj.Dial(name)
	}
	sp := speaker.New(cfg)
	if err := sp.Connect(10 * time.Second); err != nil {
		sp.Stop()
		return nil, err
	}
	tb.speakers = append(tb.speakers, sp)
	return sp, nil
}

// stop tears the speakers down, then the router.
func (tb *testbed) stop() {
	for _, sp := range tb.speakers {
		sp.Stop()
	}
	tb.router.Stop()
}

// established reports whether every speaker's session is up.
func (tb *testbed) established() bool {
	for _, sp := range tb.speakers {
		if !sp.Established() {
			return false
		}
	}
	return true
}

// retries sums the speakers' reconnection counts.
func (tb *testbed) retries() uint64 {
	var n uint64
	for _, sp := range tb.speakers {
		n += sp.Retries()
	}
	return n
}

// phaseStep runs one phase of a scenario for runPhases: it calls send
// and returns once the router has absorbed what was sent. How that is
// known is the harness's wait primitive — the live benchmark counts
// transactions up to tx (cumulative over the run) and times the timed
// phase; conformance, whose faulted runs replay journals and so cannot
// know the count up front, settles on the Loc-RIB reaching ribLen.
type phaseStep func(phase string, timed bool, send func() error, tx uint64, ribLen int) error

// runPhases is the paper's three-phase method (Fig. 1) for all four
// operations, written once: Phase 1 — Speaker 1 injects the table
// (timed for start-up); Phase 3 for ending — Speaker 1 withdraws it;
// for the incremental operations Phase 2 — Speaker 2 connects and is
// sent the whole table within timeout — then Phase 3 — Speaker 2
// re-announces it with longer (no change) or shorter (change) paths.
func runPhases(scn Scenario, tb *testbed, table []core.Route, seed int64, timeout time.Duration, step phaseStep) error {
	n := uint64(len(table))
	per := scn.PrefixesPerMsg
	inject := func() error { return tb.sp1.Announce(table, per) }
	if err := step("phase1-inject", scn.Op == OpStartUp, inject, n, len(table)); err != nil {
		return err
	}
	switch scn.Op {
	case OpEnding:
		return step("phase3-withdraw", true, func() error { return tb.sp1.Withdraw(table, per) }, 2*n, 0)
	case OpIncrementalNoChange, OpIncrementalChange:
		sp2, err := tb.connect(liveSpeaker2AS, netaddr.MustParseAddr("2.2.2.2"), "speaker2")
		if err != nil {
			return err
		}
		if err := sp2.WaitForPrefixes(n, timeout); err != nil {
			return err
		}
		variant := make([]core.Route, len(table))
		for i, r := range table {
			if scn.Op == OpIncrementalNoChange {
				variant[i] = core.Lengthen(r, liveSpeaker2AS, 2, seed)
			} else {
				variant[i] = core.Shorten(r, liveSpeaker2AS)
			}
		}
		return step("phase3-incremental", true, func() error { return sp2.Announce(variant, per) }, 2*n, len(table))
	}
	return nil
}
