package bench

import (
	"fmt"
	"slices"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
	"bgpbench/internal/policy"
	"bgpbench/internal/rib"
	"bgpbench/internal/speaker"
	"bgpbench/internal/wire"
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

// Speakers 1 and 2 announce their BGP identifiers as next hops.
var speaker1ID, speaker2ID = netaddr.MustParseAddr("1.1.1.1"), netaddr.MustParseAddr("2.2.2.2")

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
	if tb.sp1, err = tb.connect(liveSpeaker1AS, speaker1ID, "speaker1"); err != nil {
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
// part of the testbed. The speaker's side of the session comes up
// first; connect returns once the router has registered the peer too,
// so nothing a caller sends next can reach the shards before the
// peer's own registration, and a receiver joins by the live stream, not
// by catch-up replay.
func (tb *testbed) connect(as uint32, id netaddr.Addr, name string) (*speaker.Speaker, error) {
	cfg := speaker.Config{AS: as, ID: id, Target: tb.router.ListenAddr(), Name: name, Reconnect: tb.cfg.Reconnect}
	if tb.cfg.Inj != nil {
		cfg.Dial = tb.cfg.Inj.Dial(name)
	}
	sp := speaker.New(cfg)
	const timeout = 10 * time.Second
	err := sp.Connect(timeout)
	if err == nil {
		registered := func() bool { return slices.Contains(tb.router.PeerIDs(), id) }
		err = poll(registered, timeout, func() error { return fmt.Errorf("router has not registered %s (%s) after %v", name, id, timeout) })
	}
	if err != nil {
		sp.Stop()
		return nil, err
	}
	tb.speakers = append(tb.speakers, sp)
	return sp, nil
}

// poll waits until cond holds, returning expired() once timeout passes
// first.
func poll(cond func() bool, timeout time.Duration, expired func() error) error {
	hang := time.After(timeout) //bgplint:allow(detclock) reason=hang deadline over a real TCP transport; no settle decision depends on it
	for !cond() {
		select {
		case <-hang:
			return expired()
		case <-time.After(100 * time.Microsecond): //bgplint:allow(detclock) reason=poll backoff while the awaited state is in flight, not modeled time
		}
	}
	return nil
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

// markerBlock holds the end-of-phase markers. GenerateTable never draws
// from it (IPv4 tables stay below 224/8, IPv6 in 2000::/3), and the
// digests skip it.
var markerBlock = netaddr.MustParsePrefix("240.0.0.0/8")

func isMarker(p netaddr.Prefix) bool { return markerBlock.Contains(p.Addr()) }

// markerSet is Phase k's markers, announced with path: one /32 in
// 240.k.0.0/16 per decision shard, since a shard holding its marker has
// processed what the session sent it before (DESIGN §6).
func markerSet(k, shards int, path wire.ASPath) []core.Route {
	set := make([]core.Route, shards)
	for i, left := uint32(0), shards; left > 0; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFromV4(240<<24|uint32(k)<<16|i), 32)
		if s := rib.ShardOf(p, shards); set[s].Prefix.Len() == 0 {
			set[s], left = core.Route{Prefix: p, Path: path}, left-1
		}
	}
	return set
}

// runPhases is the paper's three-phase method (Fig. 1) for all four
// operations, written once: Phase 1 — Speaker 1 injects the table
// (timed for start-up); Phase 3 for ending — Speaker 1 withdraws it;
// for the incremental operations Phase 2 — Speaker 2 connects and is
// sent the whole Loc-RIB within timeout — then Phase 3 — Speaker 2
// re-announces the table with longer (no change) or shorter (change)
// paths. timed, when non-nil, wraps the phase the scenario measures.
//
// Phases 1 and 3 end on markers, the one settle rule of every harness:
// the sender announces the phase's marker set after the phase's stream,
// so its journal holds the markers last and a replay re-sends them last.
func runPhases(scn Scenario, tb *testbed, table []core.Route, seed int64, timeout time.Duration, timed func(run func() error) error) error {
	per, shards := scn.PrefixesPerMsg, tb.router.Shards()
	markers := 0
	// phase sends Phase num's stream from sp (AS as, next hop id), then
	// its marker set, and settles on a Loc-RIB of want table routes.
	phase := func(num int, measured bool, sp *speaker.Speaker, as uint32, id netaddr.Addr, want int, send func() error) error {
		set := markerSet(num, shards, wire.NewASPath(as))
		markers += len(set)
		run := func() error {
			if err := send(); err != nil {
				return err
			}
			if err := sp.Announce(set, len(set)); err != nil {
				return err
			}
			return tb.settle(set, id, want+markers, timeout)
		}
		if measured && timed != nil {
			return timed(run)
		}
		return run()
	}
	inject := func() error { return tb.sp1.Announce(table, per) }
	if err := phase(1, scn.Op == OpStartUp, tb.sp1, liveSpeaker1AS, speaker1ID, len(table), inject); err != nil {
		return err
	}
	switch scn.Op {
	case OpEnding:
		return phase(3, true, tb.sp1, liveSpeaker1AS, speaker1ID, 0, func() error { return tb.sp1.Withdraw(table, per) })
	case OpIncrementalNoChange, OpIncrementalChange:
		sp2, err := tb.connect(liveSpeaker2AS, speaker2ID, "speaker2")
		if err != nil {
			return err
		}
		if err := sp2.WaitForPrefixes(uint64(len(table)+markers), timeout); err != nil {
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
		return phase(3, true, sp2, liveSpeaker2AS, speaker2ID, len(table), func() error { return sp2.Announce(variant, per) })
	}
	return nil
}

// settle waits until the router's FIB holds every marker of set with
// next hop id (the phase's sender) and every speaker's session is up;
// the Loc-RIB must then hold wantRIB routes, markers included. It needs
// every fault to fire before the markers (each faulted attempt's stream
// runs past the profile's horizon first), so markers only ever arrive
// on a session that stays up.
func (tb *testbed) settle(set []core.Route, id netaddr.Addr, wantRIB int, timeout time.Duration) error {
	settled := func() bool {
		for _, m := range set {
			if e, ok := tb.router.FIB().LookupExact(m.Prefix); !ok || e.NextHop != id {
				return false
			}
		}
		return tb.established()
	}
	err := poll(settled, timeout, func() error {
		return fmt.Errorf("markers of %s not installed after %v (tx=%d retries=%d)", set[0].Prefix, timeout, tb.router.Transactions(), tb.retries())
	})
	if err != nil {
		return err
	}
	if got := tb.router.RIBLen(); got != wantRIB {
		return fmt.Errorf("Loc-RIB holds %d routes at the markers of %s, want %d", got, set[0].Prefix, wantRIB)
	}
	return nil
}
