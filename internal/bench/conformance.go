package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/fib"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// ConformanceConfig parameterizes one conformance replay: a scenario
// driven over fault-injected transports, settled, and digested.
type ConformanceConfig struct {
	// Profile names the netem fault profile ("clean", "lossy-reorder",
	// "flap-reset", ...).
	Profile string
	// Seed drives both the workload generator and the fault schedules.
	Seed int64
	// Shards is the router's decision-worker count (0 = GOMAXPROCS).
	Shards int
	// TableSize is the routing-table size in prefixes (default 600 —
	// small enough for CI, large enough that every fault fires within a
	// scenario's table stream, ahead of the phase's markers).
	TableSize int
	// Timeout bounds each phase's wait (default 60s).
	Timeout time.Duration
	// Peers adds this many receive-only peer sessions (AS 65100+i) that
	// watch the run and whose Adj-RIB-Out digests land in AdjOutDigests.
	// 0 keeps the classic two-speaker topology.
	Peers int
	// PeerGroups splits the receive-only peers round-robin across this
	// many distinct export policies (each sets a different MED), so the
	// router's update-group path buckets them into exactly this many
	// groups. 0 or 1 means one shared policy.
	PeerGroups int
	// UpdateGroups enables the router's grouped emission path. Digests
	// must be identical with it on or off — that equality is the
	// equivalence proof for the compute-once/fan-out Adj-RIB-Out.
	UpdateGroups bool
	// AFI selects the workload's address-family mix: "" or "v4" (the
	// historical IPv4 workload, digests unchanged), "v6", or "dual"
	// (half IPv4, half IPv6 over the same sessions). See familyTable.
	AFI string
}

func (c *ConformanceConfig) defaults() {
	if c.TableSize == 0 {
		c.TableSize = 600
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Profile == "" {
		c.Profile = "clean"
	}
}

// ConformanceResult carries the post-convergence state digests of one
// run. Two runs of the same scenario agree on every digest iff the
// router converged to identical Loc-RIB, per-peer Adj-RIB-Out, and FIB
// contents — regardless of shard count or fault profile.
type ConformanceResult struct {
	Scenario Scenario `json:"-"`
	Profile  string   `json:"profile"`
	Shards   int      `json:"shards"`
	// AFI echoes the workload's address-family mix ("" = v4).
	AFI string `json:"afi,omitempty"`
	// LocRIBDigest hashes the selected route per prefix (prefix, peer,
	// canonical attribute bytes), in prefix order.
	LocRIBDigest string `json:"loc_rib_digest"`
	// AdjOutDigests hashes each established peer's Adj-RIB-Out, keyed by
	// the peer's BGP identifier.
	AdjOutDigests map[string]string `json:"adj_out_digests"`
	// FIBDigest hashes the forwarding table (prefix, next hop, port).
	FIBDigest string `json:"fib_digest"`
	// ScheduleDigest hashes the planned fault schedule (see
	// netem.Injector.ScheduleDigest); replay determinism means equal
	// seeds produce equal schedule digests.
	ScheduleDigest string `json:"schedule_digest"`
	// RIBLen is the settled Loc-RIB size, end-of-phase markers excluded.
	RIBLen int `json:"rib_len"`
	// Transactions and Retries report how much work the run took; faulted
	// runs inflate both, but the digests must not move.
	Transactions uint64              `json:"transactions"`
	Retries      uint64              `json:"retries"`
	Faults       netem.StatsSnapshot `json:"faults"`
	Duration     time.Duration       `json:"duration"`
}

// StateDigest folds the Loc-RIB, Adj-RIB-Out, and FIB digests into one
// comparable string.
func (r ConformanceResult) StateDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "loc:%s\nfib:%s\n", r.LocRIBDigest, r.FIBDigest)
	// AdjOutDigests is keyed by peer ID; iterate in the deterministic
	// order PeerIDs produced (reconstructed by sorting keys).
	for _, k := range sortedKeys(r.AdjOutDigests) {
		fmt.Fprintf(h, "adj[%s]:%s\n", k, r.AdjOutDigests[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunConformance executes one scenario against a live router with the
// speakers' transports wrapped in the named fault profile, settles every
// phase on its markers (see runPhases), and returns the router's state
// digests.
func RunConformance(scn Scenario, cfg ConformanceConfig) (ConformanceResult, error) {
	cfg.defaults()
	out := ConformanceResult{Scenario: scn, Profile: cfg.Profile, AFI: cfg.AFI}

	table, err := familyTable(cfg.AFI, cfg.TableSize, cfg.Seed)
	if err != nil {
		return out, err
	}

	profile, ok := netem.ProfileByName(cfg.Profile)
	if !ok {
		return out, fmt.Errorf("conformance: unknown fault profile %q", cfg.Profile)
	}
	profile.Seed = cfg.Seed
	// The virtual clock makes scheduled latency and stalls free: a
	// profile with seconds of stall time settles in milliseconds.
	inj := netem.NewInjector(profile, netem.NewVirtualClock())

	// The receive-only peers' Adj-RIB-Out digests land in AdjOutDigests
	// via PeerIDs below.
	tb, err := startTestbed(testbedConfig{
		Shards:         cfg.Shards,
		UpdateGroups:   cfg.UpdateGroups,
		Receivers:      cfg.Peers,
		ReceiverPolicy: func(i int) *policy.RouteMap { return receiverPolicy(receiverGroup(i, cfg.PeerGroups)) },
		Inj:            inj,
		Reconnect:      true,
	})
	if err != nil {
		return out, err
	}
	defer tb.stop()
	router := tb.router
	out.Shards = router.Shards()

	start := time.Now() //bgplint:allow(detclock) reason=reported wall-clock duration; excluded from digests
	if err := runPhases(scn, tb, table, cfg.Seed, cfg.Timeout, nil); err != nil {
		return out, fmt.Errorf("conformance %s [%s/N=%d]: %w (faults=%+v)",
			scn, cfg.Profile, out.Shards, err, inj.Stats())
	}
	out.Duration = time.Since(start) //bgplint:allow(detclock) reason=reported wall-clock duration; excluded from digests
	out.Transactions = router.Transactions()
	out.Retries = tb.retries()
	out.Faults = inj.Stats()
	out.ScheduleDigest = inj.ScheduleDigest()
	out.LocRIBDigest, out.RIBLen = digestLocRIB(router.DumpLocRIB())
	out.AdjOutDigests = make(map[string]string)
	for _, id := range router.PeerIDs() {
		out.AdjOutDigests[id.String()] = digestAdjOut(router.DumpAdjOut(id))
	}
	out.FIBDigest = digestFIB(router)
	return out, nil
}

// receiverAS numbers the receive-only conformance peers from 65100.
func receiverAS(i int) uint32 { return uint32(65100 + i) }

// receiverID gives receiver i a unique BGP identifier under 10.1.0.0/16
// (last octet kept nonzero).
func receiverID(i int) netaddr.Addr {
	return netaddr.AddrFrom4(10, 1, byte(i/250), byte(i%250+1))
}

// receiverGroup assigns receiver i to one of g policy groups round-robin.
func receiverGroup(i, g int) int {
	if g <= 1 {
		return 0
	}
	return i % g
}

// receiverPolicy builds the export policy for receiver group g: a single
// always-matching term that sets MED 1000+g. Different groups differ in
// export behavior (different MED), so the router's update groups can
// never merge them; receivers within a group carry behaviorally
// identical policies and must see byte-identical streams.
func receiverPolicy(g int) *policy.RouteMap {
	med := uint32(1000 + g)
	return &policy.RouteMap{
		Name: fmt.Sprintf("recv-group-%d", g),
		Terms: []policy.Term{{
			Name:   "set-med",
			Set:    policy.Set{MED: &med},
			Action: policy.Permit,
		}},
	}
}

// digestLocRIB hashes a Loc-RIB snapshot: prefix, contributing peer, and
// the canonical wire encoding of the selected attributes, in the sorted
// prefix order DumpLocRIB guarantees. It also returns how many routes it
// hashed: every route but the markers.
func digestLocRIB(routes []core.LocRoute) (string, int) {
	h := sha256.New()
	n := 0
	for _, r := range routes {
		if isMarker(r.Prefix) {
			continue
		}
		n++
		fmt.Fprintf(h, "%s %s ", r.Prefix, r.Peer)
		h.Write(wire.MarshalAttrs(*r.Attrs))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// digestAdjOut hashes one peer's Adj-RIB-Out snapshot, markers skipped.
func digestAdjOut(routes []core.AdjRoute) string {
	h := sha256.New()
	for _, r := range routes {
		if isMarker(r.Prefix) {
			continue
		}
		fmt.Fprintf(h, "%s ", r.Prefix)
		h.Write(wire.MarshalAttrs(*r.Attrs))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestFIB hashes the forwarding table sorted by prefix (the engine's
// walk order is implementation-defined), markers skipped.
func digestFIB(router *core.Router) string {
	type row struct {
		p netaddr.Prefix
		e fib.Entry
	}
	var rows []row
	router.FIB().Walk(func(p netaddr.Prefix, e fib.Entry) bool {
		if !isMarker(p) {
			rows = append(rows, row{p, e})
		}
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].p.Compare(rows[j].p) < 0 })
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s %s %d\n", r.p, r.e.NextHop, r.e.Port)
	}
	return hex.EncodeToString(h.Sum(nil))
}
