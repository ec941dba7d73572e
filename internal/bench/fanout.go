package bench

import (
	"fmt"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
)

// FanoutConfig parameterizes a many-peer emission benchmark: one speaker
// injects a full table while N receive-only peers, split round-robin
// across G export-policy groups, drain the router's Adj-RIB-Out. The
// interesting comparison is UpdateGroups on vs off at the same peer
// count: grouped emission computes and marshals each run once per group
// and fans the bytes out, so its cost should scale with G, not N.
type FanoutConfig struct {
	// Peers is the receive-only peer count (default 100).
	Peers int
	// Groups is the number of distinct export policies the peers split
	// across (default 4).
	Groups int
	// TableSize is the routing-table size in prefixes (default 5000).
	TableSize int
	// Seed makes the workload deterministic.
	Seed int64
	// Shards is the router's decision-worker count (0 = GOMAXPROCS).
	Shards int
	// UpdateGroups selects the grouped emission path.
	UpdateGroups bool
	// Timeout bounds the whole run. Zero scales the deadline with the
	// table size (see scaledTimeout) so full-DFZ runs don't inherit the
	// flat small-table default.
	Timeout time.Duration
	// AFI selects the workload's address-family mix: "" or "v4" (the
	// historical IPv4 workload), "v6", or "dual". See familyTable.
	AFI string
	// TableMode selects the table composition: "" or "uniform" (one
	// shared AS path), or "dfz" (Zipf-weighted attribute sharing). See
	// familyTableMode.
	TableMode string
}

func (c *FanoutConfig) defaults() {
	if c.Peers == 0 {
		c.Peers = 100
	}
	if c.Groups == 0 {
		c.Groups = 4
	}
	if c.TableSize == 0 {
		c.TableSize = 5000
	}
	if c.Timeout == 0 {
		// The table-scaled base covers the grouped path, but the ungrouped
		// baseline delivers prefixes × peers transactions; budget ~5µs per
		// prefix-peer on top so full-DFZ baseline cells (1M × 100 peers is
		// ~400s on one core) don't spuriously time out.
		c.Timeout = scaledTimeout(c.TableSize) +
			time.Duration(c.TableSize)*time.Duration(c.Peers)*5*time.Microsecond
	}
}

// FanoutResult reports one many-peer emission run.
type FanoutResult struct {
	Peers        int
	Groups       int
	UpdateGroups bool
	Shards       int
	Prefixes     int
	// AFI echoes the workload's address-family mix ("" = v4).
	AFI string
	// Duration spans the first injected UPDATE to the last receiver
	// holding the full table.
	Duration time.Duration
	// TPS is injected prefix transactions per second over that window.
	TPS float64
	// NsPerPrefixPeer normalizes the window to per-(prefix, peer)
	// delivery cost — the number that must scale sublinearly in Peers
	// when grouping works.
	NsPerPrefixPeer float64
	// TableMode echoes the table composition ("" = uniform).
	TableMode string
	// GroupCount, FanoutRatio, BytesBuilt, and BytesSaved echo the
	// router's update-group counters (zero when UpdateGroups is off);
	// BytesBuilt is what the shared sink marshaled.
	GroupCount  int
	FanoutRatio float64
	BytesBuilt  uint64
	BytesSaved  uint64
	// Mem snapshots the whole process (router + in-process speakers)
	// after the run settles.
	Mem MemInfo
}

// fanoutPolicy builds the export policy for fanout group g: set a
// group-specific MED (1000+g) on a common /6 sliver of the v4 space,
// permit everything else unchanged. Groups thus stay distinct update
// groups (policy.CanonicalKey covers the MED), while exporting
// byte-identical attribute blocks for the three quarters of the table
// outside the sliver. Because every group matches the same sliver, the
// emission runs break at the same prefixes in every group, so most
// groups marshal byte-for-byte identical runs: the workload where
// sharing bytes across groups, not only within one, would have the
// most to gain (each group marshals its own copy; see DESIGN §9).
// Compare receiverPolicy (conformance), which deliberately
// differentiates every route so grouped and ungrouped streams can be
// digest-compared per group.
func fanoutPolicy(g int) *policy.RouteMap {
	med := uint32(1000 + g)
	base := netaddr.AddrFrom4(64, 0, 0, 0)
	return &policy.RouteMap{
		Name: fmt.Sprintf("fanout-group-%d", g),
		Terms: []policy.Term{{
			Name: "sliver-med",
			Match: policy.Match{PrefixList: &policy.PrefixList{
				Name: fmt.Sprintf("fanout-sliver-%d", g),
				Rules: []policy.PrefixRule{{
					Prefix: netaddr.PrefixFrom(base, 6),
					GE:     6, // any more-specific within the /6
					Action: policy.Permit,
				}},
			}},
			Set:    policy.Set{MED: &med},
			Action: policy.Permit,
		}},
		DefaultPermit: true,
	}
}

// RunFanout executes one many-peer emission run over loopback TCP.
func RunFanout(cfg FanoutConfig) (FanoutResult, error) {
	cfg.defaults()
	out := FanoutResult{Peers: cfg.Peers, Groups: cfg.Groups, UpdateGroups: cfg.UpdateGroups, AFI: cfg.AFI, TableMode: cfg.TableMode}

	table, err := familyTableMode(cfg.AFI, cfg.TableMode, cfg.TableSize, cfg.Seed)
	if err != nil {
		return out, err
	}

	tb, err := startTestbed(testbedConfig{
		Shards:         cfg.Shards,
		UpdateGroups:   cfg.UpdateGroups,
		Receivers:      cfg.Peers,
		ReceiverPolicy: func(i int) *policy.RouteMap { return fanoutPolicy(receiverGroup(i, cfg.Groups)) },
	})
	if err != nil {
		return out, err
	}
	defer tb.stop()
	router, sp1, receivers := tb.router, tb.sp1, tb.receivers
	out.Shards = router.Shards()

	n := uint64(len(table))
	out.Prefixes = int(n)

	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	if err := sp1.Announce(table, LargePacket); err != nil {
		return out, err
	}
	for i, rc := range receivers {
		remain := time.Until(deadline)
		if remain <= 0 {
			return out, fmt.Errorf("fanout: receiver %d/%d still draining after %v", i, cfg.Peers, cfg.Timeout)
		}
		if err := rc.WaitForPrefixes(n, remain); err != nil {
			return out, fmt.Errorf("fanout: receiver %d/%d: %w", i, cfg.Peers, err)
		}
	}
	out.Duration = time.Since(start)
	out.TPS = float64(n) / out.Duration.Seconds()
	out.NsPerPrefixPeer = float64(out.Duration.Nanoseconds()) / (float64(n) * float64(cfg.Peers))
	if gs := router.GroupStats(); gs.Enabled {
		out.GroupCount = gs.Groups
		out.FanoutRatio = gs.FanoutRatio()
		out.BytesBuilt = gs.BytesBuilt
		out.BytesSaved = gs.BytesSaved
	}
	out.Mem = Mem()
	return out, nil
}
