package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/speaker"
	"bgpbench/internal/wire"
)

// scalePrefixes picks the digest-equivalence table size: 20k by default
// (seconds per cell), the full 200k gate when BGPBENCH_SCALE_GATE=1 —
// the size where the grouped path's shared runs and chunked catch-ups
// all cycle many times over.
func scalePrefixes() int {
	if os.Getenv("BGPBENCH_SCALE_GATE") != "" {
		return 200_000
	}
	return 20_000
}

// sampledAdjDigest hashes every stride-th row of an Adj-RIB-Out dump
// plus the total row count. At full-table scale the complete dump is
// millions of rows across peers; a deterministic stride keeps the digest
// cheap while the row count still pins the table's cardinality, so a
// dropped or duplicated route moves the digest even when it falls
// between sampled rows.
func sampledAdjDigest(routes []core.AdjRoute, stride int) string {
	h := sha256.New()
	fmt.Fprintf(h, "rows:%d\n", len(routes))
	for i, r := range routes {
		if i%stride != 0 {
			continue
		}
		fmt.Fprintf(h, "%s ", r.Prefix)
		h.Write(wire.MarshalAttrs(*r.Attrs))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runScaleCell stands up one cell of the scale matrix — a router with 8
// receive-only peers in 4 sliver-policy groups watching a DFZ-mode table
// land over loopback — and returns the Loc-RIB digest plus each peer's
// sampled Adj-RIB-Out digest, keyed by BGP identifier.
func runScaleCell(t *testing.T, table []core.Route, shards int, grouped bool) (string, map[string]string) {
	t.Helper()
	const peers, groups = 8, 4
	neighbors := []core.NeighborConfig{{AS: liveSpeaker1AS}}
	for i := 0; i < peers; i++ {
		neighbors = append(neighbors, core.NeighborConfig{
			AS:     receiverAS(i),
			Export: fanoutPolicy(receiverGroup(i, groups)),
		})
	}
	router, err := core.NewRouter(core.Config{
		AS:           liveRouterAS,
		ID:           netaddr.MustParseAddr("10.255.0.1"),
		ListenAddr:   "127.0.0.1:0",
		Shards:       shards,
		UpdateGroups: grouped,
		Neighbors:    neighbors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	defer router.Stop()

	receivers := make([]*speaker.Speaker, 0, peers)
	defer func() {
		for _, rc := range receivers {
			rc.Stop()
		}
	}()
	for i := 0; i < peers; i++ {
		rc := speaker.New(speaker.Config{
			AS: receiverAS(i), ID: receiverID(i),
			Target: router.ListenAddr(), Name: fmt.Sprintf("scale-recv%d", i),
		})
		if err := rc.Connect(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		receivers = append(receivers, rc)
	}
	sp := speaker.New(speaker.Config{
		AS: liveSpeaker1AS, ID: netaddr.MustParseAddr("1.1.1.1"),
		Target: router.ListenAddr(), Name: "scale-feeder",
	})
	if err := sp.Connect(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp.Stop()

	if err := sp.Announce(table, LargePacket); err != nil {
		t.Fatal(err)
	}
	deadline := scaledTimeout(len(table))
	for i, rc := range receivers {
		if err := rc.WaitForPrefixes(uint64(len(table)), deadline); err != nil {
			t.Fatalf("shards=%d grouped=%v: receiver %d: %v", shards, grouped, i, err)
		}
	}

	loc, _ := digestLocRIB(router.DumpLocRIB())
	adj := make(map[string]string, peers)
	for i := 0; i < peers; i++ {
		id := receiverID(i)
		adj[id.String()] = sampledAdjDigest(router.DumpAdjOut(id), 17)
	}
	return loc, adj
}

// TestScaleDigestEquivalence is the large-table equivalence proof: a
// DFZ-mode table (Zipf attribute sharing, so emission runs vary in
// length as a real table's do rather than following one uniform path)
// lands through every emission configuration — grouped and ungrouped,
// one shard and four —
// and every cell must settle to the same Loc-RIB digest and the same
// per-peer sampled Adj-RIB-Out digests. Runs at 20k prefixes by default;
// set BGPBENCH_SCALE_GATE=1 for the 200k gate. Skipped under -short.
func TestScaleDigestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large-table scale matrix; run without -short")
	}
	n := scalePrefixes()
	table, err := familyTableMode(AFIv4, TableDFZ, n, 11)
	if err != nil {
		t.Fatal(err)
	}

	wantLoc := ""
	var wantAdj map[string]string
	for _, shards := range []int{1, 4} {
		for _, grouped := range []bool{false, true} {
			label := fmt.Sprintf("n=%d shards=%d grouped=%v", n, shards, grouped)
			loc, adj := runScaleCell(t, table, shards, grouped)
			if wantLoc == "" {
				wantLoc, wantAdj = loc, adj
				continue
			}
			if loc != wantLoc {
				t.Errorf("%s: Loc-RIB digest diverged from first cell", label)
			}
			for id, d := range adj {
				if d != wantAdj[id] {
					t.Errorf("%s: peer %s Adj-RIB-Out digest diverged from first cell", label, id)
				}
			}
		}
	}
}
