package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// gateProfiles are the profiles every scenario must pass conformance
// under (the acceptance gate); all three eventually deliver the full
// update stream, so the settled state must match the clean run.
var gateProfiles = []string{"clean", "lossy-reorder", "flap-reset"}

const conformanceSeed = 1701

// runConf executes one conformance run, failing the test on error.
func runConf(t *testing.T, scn Scenario, afi, profile string, shards int) ConformanceResult {
	t.Helper()
	res, err := RunConformance(scn, ConformanceConfig{
		Profile: profile,
		Seed:    conformanceSeed,
		Shards:  shards,
		AFI:     afi,
	})
	if err != nil {
		t.Fatalf("%s [%s/%s N=%d]: %v", scn, afi, profile, shards, err)
	}
	return res
}

var update = flag.Bool("update", false, "rewrite testdata/conformance_digests.json from this run")

const goldenPath = "testdata/conformance_digests.json"

// goldenState is the pinned settled state of one scenario: the reference
// every mode of the router is compared against, so that equivalence is
// never only "two modes of the same implementation agree".
type goldenState struct {
	Loc    string            `json:"loc_rib_digest"`
	FIB    string            `json:"fib_digest"`
	AdjOut map[string]string `json:"adj_out_digests"`
}

// goldenDigests pins, per address-family mix ("v4", "dual") and scenario
// number, the clean N=1 digests. Regenerate only for an intended change
// of routing behaviour:
//
//	go test ./internal/bench -run TestConformanceMatrix -update
type goldenDigests struct {
	mu    sync.Mutex // the scenarios check in as parallel subtests
	byAFI map[string]map[string]goldenState
}

func loadGolden(t *testing.T) *goldenDigests {
	t.Helper()
	g := &goldenDigests{byAFI: map[string]map[string]goldenState{}}
	if *update {
		return g
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update): %v", err)
	}
	if err := json.Unmarshal(b, &g.byAFI); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// check compares one run against its pinned state, or records it under
// -update.
func (g *goldenDigests) check(t *testing.T, afi string, res ConformanceResult) {
	t.Helper()
	got := goldenState{Loc: res.LocRIBDigest, FIB: res.FIBDigest, AdjOut: res.AdjOutDigests}
	num := fmt.Sprint(res.Scenario.Num)
	g.mu.Lock()
	defer g.mu.Unlock()
	if *update {
		if g.byAFI[afi] == nil {
			g.byAFI[afi] = map[string]goldenState{}
		}
		g.byAFI[afi][num] = got
		return
	}
	want, ok := g.byAFI[afi][num]
	if !ok {
		t.Errorf("%s [%s]: no golden digests (run with -update)", res.Scenario, afi)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s [%s]: settled state drifted from %s:\n  got  %+v\n  want %+v\nre-run with -update if the change is intentional",
			res.Scenario, afi, goldenPath, got, want)
	}
}

func (g *goldenDigests) write(t *testing.T) {
	t.Helper()
	b, err := json.MarshalIndent(g.byAFI, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceMatrix is the acceptance gate: every scenario's clean
// N=1 run must settle to the pinned golden digests (IPv4 and dual-stack
// workloads), and under every gate profile must settle to the same
// Loc-RIB/Adj-RIB-Out/FIB digests with one decision shard and with four
// — every faulted run matching the clean run (the profiles guarantee
// eventual delivery). Runs the full 8x3x2 matrix; skipped under -short.
func TestConformanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance matrix is long; run without -short")
	}
	golden := loadGolden(t)
	// The group returns once every parallel scenario has finished.
	t.Run("scenarios", func(t *testing.T) {
		for _, scn := range Scenarios {
			scn := scn
			t.Run(fmt.Sprint(scn.Num), func(t *testing.T) {
				t.Parallel()
				golden.check(t, AFIDual, runConf(t, scn, AFIDual, "clean", 1))
				var cleanDigest string
				for _, profile := range gateProfiles {
					single := runConf(t, scn, AFIv4, profile, 1)
					sharded := runConf(t, scn, AFIv4, profile, 4)
					if single.StateDigest() != sharded.StateDigest() {
						t.Errorf("%s [%s]: N=1 and N=4 disagree:\n  N=1 loc=%s fib=%s\n  N=4 loc=%s fib=%s",
							scn, profile,
							single.LocRIBDigest, single.FIBDigest,
							sharded.LocRIBDigest, sharded.FIBDigest)
					}
					if profile == "clean" {
						golden.check(t, AFIv4, single)
						cleanDigest = single.StateDigest()
						if single.Faults.Corrupts+single.Faults.Resets+single.Faults.Reorders != 0 {
							t.Errorf("%s [clean]: faults injected: %+v", scn, single.Faults)
						}
					} else {
						if single.StateDigest() != cleanDigest {
							t.Errorf("%s [%s]: faulted state differs from clean run", scn, profile)
						}
						if profile == "flap-reset" && single.Faults.Resets == 0 {
							t.Errorf("%s [flap-reset]: no reset fired; profile exercised nothing", scn)
						}
						if profile == "lossy-reorder" && single.Faults.Corrupts+single.Faults.Reorders == 0 {
							t.Errorf("%s [lossy-reorder]: no corruption fired; profile exercised nothing", scn)
						}
					}
				}
			})
		}
	})
	if *update && !t.Failed() {
		golden.write(t)
	}
}

// TestConformanceReplayDeterminism: same seed + same profile => the
// byte-identical fault schedule and identical state digests across two
// consecutive runs. This is the CI replay-determinism check.
func TestConformanceReplayDeterminism(t *testing.T) {
	scn := Scenarios[7] // incremental-change, large packets: all phases, both speakers
	for _, profile := range []string{"lossy-reorder", "flap-reset"} {
		a := runConf(t, scn, AFIv4, profile, 4)
		b := runConf(t, scn, AFIv4, profile, 4)
		if a.ScheduleDigest != b.ScheduleDigest {
			t.Errorf("[%s] fault schedules differ across runs:\n  %s\n  %s",
				profile, a.ScheduleDigest, b.ScheduleDigest)
		}
		if a.StateDigest() != b.StateDigest() {
			t.Errorf("[%s] state digests differ across runs:\n  loc %s / %s\n  fib %s / %s",
				profile, a.LocRIBDigest, b.LocRIBDigest, a.FIBDigest, b.FIBDigest)
		}
	}
}

// TestConformanceGate is the quick -race CI gate: one representative
// scenario under one faulty profile, N=1 vs N=4. Selected via
// BGPBENCH_CONFORMANCE_GATE=1 so the race run can execute just this
// test; it also runs as part of the normal suite.
func TestConformanceGate(t *testing.T) {
	scn := Scenarios[6] // incremental-change, small packets: max message count
	profile := "flap-reset"
	single := runConf(t, scn, AFIv4, profile, 1)
	sharded := runConf(t, scn, AFIv4, profile, 4)
	if single.StateDigest() != sharded.StateDigest() {
		t.Fatalf("%s [%s]: N=1 and N=4 disagree", scn, profile)
	}
	if single.Faults.Resets == 0 || sharded.Faults.Resets == 0 {
		t.Fatalf("%s [%s]: no resets fired (single=%+v sharded=%+v)",
			scn, profile, single.Faults, sharded.Faults)
	}
	if os.Getenv("BGPBENCH_CONFORMANCE_GATE") != "" {
		t.Logf("gate: loc=%s fib=%s retries=%d", single.LocRIBDigest, single.FIBDigest, single.Retries+sharded.Retries)
	}
}

// TestConformanceDualStackGate is the dual-stack acceptance gate: a
// representative scenario, run per address-family mix, must settle to
// identical digests at N=1 vs N=4 shards and under a faulted profile —
// with IPv6 NLRI flowing end-to-end (MP_REACH/MP_UNREACH over the same
// sessions). The three mixes must also settle to three *distinct*
// states: if the v6 or dual digests collapsed onto the v4 ones, the
// IPv6 half of the workload silently went nowhere.
func TestConformanceDualStackGate(t *testing.T) {
	scn := Scenarios[6] // incremental-change, small packets: all phases
	run := func(afi, profile string, shards int) ConformanceResult {
		return runConf(t, scn, afi, profile, shards)
	}
	digests := map[string]string{}
	for _, afi := range []string{AFIv4, AFIv6, AFIDual} {
		clean := run(afi, "clean", 1)
		if clean.RIBLen == 0 {
			t.Fatalf("[%s] settled with an empty Loc-RIB", afi)
		}
		if sharded := run(afi, "clean", 4); sharded.StateDigest() != clean.StateDigest() {
			t.Errorf("[%s] N=1 and N=4 disagree:\n  loc %s / %s\n  fib %s / %s",
				afi, clean.LocRIBDigest, sharded.LocRIBDigest, clean.FIBDigest, sharded.FIBDigest)
		}
		if faulted := run(afi, "flap-reset", 4); faulted.StateDigest() != clean.StateDigest() {
			t.Errorf("[%s] flap-reset state differs from clean run", afi)
		}
		digests[afi] = clean.StateDigest()
	}
	if digests[AFIv4] == digests[AFIv6] || digests[AFIv4] == digests[AFIDual] || digests[AFIv6] == digests[AFIDual] {
		t.Errorf("address-family mixes did not produce distinct states: %v", digests)
	}
	// The explicit "v4" selector and the zero value are the same
	// workload; their digests must agree byte-for-byte.
	if def := run("", "clean", 1); def.StateDigest() != digests[AFIv4] {
		t.Errorf("default AFI digest differs from explicit v4:\n  %s\n  %s", def.StateDigest(), digests[AFIv4])
	}
}

// TestConformanceBadAFI: an unknown selector must fail fast, before any
// router or speaker starts.
func TestConformanceBadAFI(t *testing.T) {
	_, err := RunConformance(Scenarios[0], ConformanceConfig{AFI: "v5"})
	if err == nil {
		t.Fatal("AFI \"v5\" accepted")
	}
}
