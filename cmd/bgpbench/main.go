// Command bgpbench regenerates every table and figure of "Benchmarking
// BGP Routers" (IISWC 2007) on the modeled substrate, and runs the same
// eight-scenario benchmark against this repository's live Go BGP router.
//
// Usage:
//
//	bgpbench table3  [-n prefixes]
//	bgpbench fig3    [-n prefixes] [-csv dir]
//	bgpbench fig4    [-n prefixes] [-csv dir]
//	bgpbench fig5    [-n prefixes] [-step mbps] [-csv dir]
//	bgpbench fig6    [-n prefixes] [-cross mbps] [-csv dir]
//	bgpbench scenario -num N [-system NAME] [-n prefixes] [-cross mbps]
//	bgpbench live    [-n prefixes] [-num N] [-afi v4|v6|dual] [-fib engine] [-cpus N] [-crossworkers K] [-crosspps R] [-shards LIST] [-pprof addr] [-json file]
//	bgpbench fanout  [-n prefixes] [-afi v4|v6|dual] [-table uniform|dfz] [-peers LIST] [-groups G] [-shards N] [-grouped-only] [-cpus N] [-json file]
//	bgpbench lookup  [-n prefixes] [-engines LIST] [-readers K] [-churn N] [-duration D] [-cpus N] [-json file]
//	bgpbench livesweep [-n prefixes] [-num N] [-cpus N]
//	bgpbench chaos   [-n prefixes] [-num N] [-profiles LIST] [-seed S] [-shards LIST] [-json file]
//	bgpbench worm
//	bgpbench ablate  [-n prefixes]
//	bgpbench mrt <file>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"bgpbench/internal/bench"
	"bgpbench/internal/fib"
	"bgpbench/internal/mrt"
	"bgpbench/internal/netem"
	"bgpbench/internal/platform"
	"bgpbench/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table3":
		err = cmdTable3(args)
	case "fig3":
		err = cmdFig3(args)
	case "fig4":
		err = cmdFig4(args)
	case "fig5":
		err = cmdFig5(args)
	case "fig6":
		err = cmdFig6(args)
	case "scenario":
		err = cmdScenario(args)
	case "live":
		err = cmdLive(args)
	case "fanout":
		err = cmdFanout(args)
	case "lookup":
		err = cmdLookup(args)
	case "ablate":
		err = cmdAblate(args)
	case "worm":
		err = cmdWorm(args)
	case "livesweep":
		err = cmdLiveSweep(args)
	case "chaos":
		err = cmdChaos(args)
	case "mrt":
		err = cmdMRT(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bgpbench: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bgpbench - reproduce "Benchmarking BGP Routers" (IISWC 2007)

commands:
  table3     Table III: tps for 8 scenarios x 4 modeled systems, no cross-traffic
  fig3       Figure 3: per-process CPU load during Scenario 6 (PIII, Xeon, IXP2400)
  fig4       Figure 4: Pentium III CPU load, small vs large packets (Scenarios 1-2)
  fig5       Figure 5: tps vs cross-traffic for all scenarios and systems
  fig6       Figure 6: Pentium III Scenario 8 with and without cross-traffic
  scenario   run one scenario on one modeled system and print phase detail
  live       run the benchmark against the live Go BGP router over loopback
  fanout     many-peer emission: N receivers in G policy groups, update groups on vs off
  lookup     data-plane LPM throughput: 1M-prefix full table, optional churn
  ablate     ablation studies of the model's design choices
  worm       update-storm survivability (max sustainable / keepalive-safe rates)
  livesweep  live Figure-5 analogue: tps vs rate-controlled cross-traffic
  chaos      conformance replay under fault injection: digests across shards/profiles
  mrt        summarize an MRT TABLE_DUMP_V2 file (peers, lengths, origins)

run "bgpbench <command> -h" for flags.
`)
}

func csvOut(dir, name string, set *trace.Set) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("  wrote %s\n", f.Name())
	return set.WriteCSV(f)
}

func cmdTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	n := fs.Int("n", 20000, "routing table size in prefixes")
	fs.Parse(args)
	fmt.Printf("Simulating 8 scenarios x 4 systems, table size %d...\n\n", *n)
	sim, err := bench.Table3(*n)
	if err != nil {
		return err
	}
	bench.WriteTable3(os.Stdout, sim)
	geo, worst := bench.Table3Fidelity(sim)
	fmt.Printf("\nfidelity vs paper: geometric-mean ratio %.3f, worst cell %.3f\n", geo, worst)
	return nil
}

func printPhases(phases []platform.PhaseResult) {
	for _, p := range phases {
		fmt.Printf("  %-16s start=%8.1fs dur=%8.1fs prefixes=%-7d tps=%9.1f",
			p.Name, p.Start, p.Duration, p.Prefixes, p.TPS)
		if p.OfferedMbps > 0 {
			fmt.Printf("  fwd=%.1f/%.1f Mbps", p.ForwardedMbps, p.OfferedMbps)
		}
		fmt.Println()
	}
}

func cmdFig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	n := fs.Int("n", 20000, "routing table size in prefixes")
	dir := fs.String("csv", "", "directory for CSV trace output")
	fs.Parse(args)
	results, err := bench.Fig3(*n)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("\nFigure 3 (%s): per-process CPU load during Scenario 6\n", r.System)
		printPhases(r.Phases)
		r.Traces.RenderASCII(os.Stdout, 76)
		if err := csvOut(*dir, "fig3_"+r.System+".csv", r.Traces); err != nil {
			return err
		}
	}
	return nil
}

func cmdFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	n := fs.Int("n", 20000, "routing table size in prefixes")
	dir := fs.String("csv", "", "directory for CSV trace output")
	fs.Parse(args)
	results, err := bench.Fig4(*n)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("\nFigure 4 (%s): Pentium III CPU load\n", r.Scenario)
		printPhases(r.Phases)
		r.Traces.RenderASCII(os.Stdout, 76)
		name := fmt.Sprintf("fig4_scenario%d.csv", r.Scenario.Num)
		if err := csvOut(*dir, name, r.Traces); err != nil {
			return err
		}
	}
	return nil
}

func cmdFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	n := fs.Int("n", 5000, "routing table size in prefixes (smaller: 8x4xsweep runs)")
	step := fs.Float64("step", 100, "cross-traffic sweep step in Mbps")
	dir := fs.String("csv", "", "directory for CSV output")
	fs.Parse(args)
	fmt.Printf("Sweeping cross-traffic for 8 scenarios x 4 systems (step %.0f Mbps)...\n", *step)
	series, err := bench.Fig5(*n, *step)
	if err != nil {
		return err
	}
	cur := 0
	for _, s := range series {
		if s.Scenario.Num != cur {
			cur = s.Scenario.Num
			fmt.Printf("\nBenchmark %d (%s)\n", cur, s.Scenario)
			fmt.Printf("  %-12s", "cross Mbps")
			fmt.Println("tps...")
		}
		fmt.Printf("  %-12s", s.System)
		for _, p := range s.Points {
			fmt.Printf(" %9.1f@%-4.0f", p.TPS, p.CrossMbps)
		}
		fmt.Println()
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*dir, "fig5.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Printf("\n  wrote %s\n", f.Name())
		return bench.WriteFig5CSV(f, series)
	}
	return nil
}

func cmdFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	n := fs.Int("n", 20000, "routing table size in prefixes")
	cross := fs.Float64("cross", 300, "cross-traffic level in Mbps")
	dir := fs.String("csv", "", "directory for CSV trace output")
	fs.Parse(args)
	results, err := bench.Fig6(*n, *cross)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("\nFigure 6: Pentium III, Scenario 8, cross-traffic %.0f Mbps (tps %.1f)\n", r.CrossMbps, r.TPS)
		printPhases(r.Phases)
		r.Traces.RenderASCII(os.Stdout, 76)
		name := fmt.Sprintf("fig6_cross%.0f.csv", r.CrossMbps)
		if err := csvOut(*dir, name, r.Traces); err != nil {
			return err
		}
	}
	return nil
}

func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	num := fs.Int("num", 1, "scenario number 1-8")
	system := fs.String("system", "PentiumIII", "system: PentiumIII, Xeon, IXP2400, Cisco")
	n := fs.Int("n", 20000, "routing table size in prefixes")
	cross := fs.Float64("cross", 0, "cross-traffic in Mbps")
	fs.Parse(args)
	scn, err := bench.ScenarioByNum(*num)
	if err != nil {
		return err
	}
	sys, ok := platform.SystemByName(*system)
	if !ok {
		return fmt.Errorf("unknown system %q", *system)
	}
	res, err := bench.RunModeled(sys, scn, *n, platform.CrossTraffic{Mbps: *cross})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, table %d, cross %.0f Mbps\n", scn, sys.Name, *n, *cross)
	printPhases(res.Full.Phases)
	fmt.Printf("measured phase tps: %.1f\n", res.TPS)
	res.Full.Traces.RenderASCII(os.Stdout, 76)
	return nil
}

func cmdLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ExitOnError)
	n := fs.Int("n", 10000, "routing table size in prefixes")
	num := fs.Int("num", 0, "scenario number 1-8 (0 = all)")
	afi := fs.String("afi", "", "address family of the generated table: v4 (default), v6, or dual")
	fibEngine := fs.String("fib", "patricia", "FIB engine: "+strings.Join(fib.EngineNames, ", "))
	cpus := fs.Int("cpus", 0, "set GOMAXPROCS for the run (0 = leave as is)")
	crossWorkers := fs.Int("crossworkers", 0, "goroutines saturating the forwarding plane")
	crossPPS := fs.Float64("crosspps", 0, "rate-controlled cross-traffic in packets/second")
	seed := fs.Int64("seed", 1, "workload seed")
	shards := fs.String("shards", "", "comma-separated decision-worker counts to sweep (0 = GOMAXPROCS); empty = GOMAXPROCS only")
	jsonOut := fs.String("json", "", "write machine-readable results (scenario x shards x tps) to this file")
	profile := fs.String("profile", "", "netem fault profile for the speaker transports (empty/clean = none)")
	faultSeed := fs.Int64("faultseed", 0, "fault-schedule seed (0 = workload seed)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the benchmark runs")
	repeat := fs.Int("repeat", 1, "runs per scenario/shard cell; the best run is reported (rejects scheduler noise on short runs)")
	fs.Parse(args)

	applyCPUs(*cpus)

	if *pprofAddr != "" {
		// DefaultServeMux carries the pprof handlers via the side-effect
		// import; serve it for the life of the process.
		go http.ListenAndServe(*pprofAddr, nil)
	}

	shardList, err := parseShardList(*shards)
	if err != nil {
		return err
	}
	var scns []bench.Scenario
	if *num == 0 {
		scns = bench.Scenarios
	} else {
		scn, err := bench.ScenarioByNum(*num)
		if err != nil {
			return err
		}
		scns = []bench.Scenario{scn}
	}
	fmt.Printf("Live benchmark: Go BGP router over loopback, table %d, fib=%s, crossworkers=%d\n%s\n\n",
		*n, *fibEngine, *crossWorkers, notPublished)
	fmt.Printf("%-48s %7s %12s %10s %14s\n", "scenario", "shards", "tps", "duration", "fwd pkts/s")
	var rows []liveRow
	for _, scn := range scns {
		for _, sh := range shardList {
			cfg := bench.LiveConfig{
				TableSize:    *n,
				Seed:         *seed,
				AFI:          *afi,
				FIBEngine:    *fibEngine,
				CrossWorkers: *crossWorkers,
				CrossPPS:     *crossPPS,
				Shards:       sh,
				Timeout:      5 * time.Minute,
				FaultProfile: *profile,
				FaultSeed:    *faultSeed,
			}
			// Short cells (tens of milliseconds on small tables) are at
			// the mercy of the scheduler; with -repeat the best of k runs
			// estimates the noise-free throughput.
			res, err := bench.RunLive(scn, cfg)
			if err != nil {
				return err
			}
			for rep := 1; rep < *repeat; rep++ {
				again, err := bench.RunLive(scn, cfg)
				if err != nil {
					return err
				}
				if again.TPS > res.TPS {
					res = again
				}
			}
			fmt.Printf("%-48s %7d %12.0f %9.3fs %14.0f",
				scn.String(), res.Shards, res.TPS, res.Duration.Seconds(), res.FwdPacketsPerSec)
			if *profile != "" && *profile != "clean" {
				st := res.Faults
				fmt.Printf("  [%s: %d faults, %d retries]", res.FaultProfile,
					st.Corrupts+st.Reorders+st.Stalls+st.ReadStalls+st.Resets, res.Retries)
			}
			fmt.Println()
			rows = append(rows, liveRow{
				Scenario:        res.Scenario.Num,
				ScenarioName:    res.Scenario.String(),
				AFI:             res.AFI,
				Prefixes:        res.Prefixes,
				Shards:          res.Shards,
				TPS:             res.TPS,
				DurationSeconds: res.Duration.Seconds(),
				FwdPPS:          res.FwdPacketsPerSec,
				FIBEngine:       *fibEngine,
				Repeats:         *repeat,
				Mem:             bench.Mem(),
				Host:            bench.Host(),
			})
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d rows)\n", *jsonOut, len(rows))
	}
	return nil
}

// notPublished heads the live and fanout output: the repository's
// measured numbers come from benchmark/ (bash benchmark/run.sh), which
// repeats, reports spread and checks the host; these commands do not.
const notPublished = "not a published number — see benchmark/"

// fanoutRow is one record of the machine-readable fanout benchmark
// output.
type fanoutRow struct {
	AFI             string         `json:"afi,omitempty"`
	Peers           int            `json:"peers"`
	Groups          int            `json:"groups"`
	UpdateGroups    bool           `json:"update_groups"`
	Prefixes        int            `json:"prefixes"`
	Shards          int            `json:"shards"`
	TPS             float64        `json:"tps"`
	NsPerPrefixPeer float64        `json:"ns_per_prefix_peer"`
	DurationSeconds float64        `json:"duration_seconds"`
	TableMode       string         `json:"table_mode,omitempty"`
	GroupCount      int            `json:"update_group_count,omitempty"`
	FanoutRatio     float64        `json:"update_group_fanout_ratio,omitempty"`
	BytesBuilt      uint64         `json:"update_group_bytes_built,omitempty"`
	BytesSaved      uint64         `json:"update_group_bytes_saved,omitempty"`
	Mem             bench.MemInfo  `json:"mem"`
	Host            bench.HostInfo `json:"host"`
}

func cmdFanout(args []string) error {
	fs := flag.NewFlagSet("fanout", flag.ExitOnError)
	n := fs.Int("n", 5000, "routing table size in prefixes")
	afi := fs.String("afi", "", "address family of the generated table: v4 (default), v6, or dual")
	tableMode := fs.String("table", "", "table composition: uniform (default, one shared AS path) or dfz (Zipf attribute sharing)")
	groupedOnly := fs.Bool("grouped-only", false, "run only the update-groups-on cells (full-DFZ ungrouped runs need per-peer RIB memory)")
	peers := fs.String("peers", "25,50,100", "comma-separated receiver peer counts to sweep")
	groups := fs.Int("groups", 4, "export-policy groups the receivers split across")
	shards := fs.Int("shards", 0, "decision-worker shard count (0 = GOMAXPROCS)")
	cpus := fs.Int("cpus", 0, "set GOMAXPROCS for the run (0 = leave as is)")
	seed := fs.Int64("seed", 1, "workload seed")
	jsonOut := fs.String("json", "", "write machine-readable results to this file")
	fs.Parse(args)
	applyCPUs(*cpus)

	var peerList []int
	for _, part := range strings.Split(*peers, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return fmt.Errorf("bad -peers value %q", part)
		}
		peerList = append(peerList, v)
	}

	fmt.Printf("Fanout benchmark: table %d, %d policy groups, peers %v, update groups off vs on\n%s\n\n",
		*n, *groups, peerList, notPublished)
	fmt.Printf("%6s %7s %7s %12s %16s %10s %8s %12s %12s %12s\n",
		"peers", "grouped", "shards", "tps", "ns/prefix/peer", "duration", "fanout", "bytes saved", "built", "rss")
	modes := []bool{false, true}
	if *groupedOnly {
		modes = []bool{true}
	}
	var rows []fanoutRow
	for _, p := range peerList {
		for _, ug := range modes {
			res, err := bench.RunFanout(bench.FanoutConfig{
				Peers: p, Groups: *groups, TableSize: *n, AFI: *afi, TableMode: *tableMode,
				Seed: *seed, Shards: *shards, UpdateGroups: ug,
			})
			if err != nil {
				return err
			}
			fmt.Printf("%6d %7v %7d %12.0f %16.1f %9.3fs %8.1f %12s %12s %12s\n",
				res.Peers, res.UpdateGroups, res.Shards, res.TPS, res.NsPerPrefixPeer,
				res.Duration.Seconds(), res.FanoutRatio,
				fmtBytes(res.BytesSaved), fmtBytes(res.BytesBuilt), fmtBytes(res.Mem.RSSBytes))
			rows = append(rows, fanoutRow{
				AFI:             res.AFI,
				Peers:           res.Peers,
				Groups:          res.Groups,
				UpdateGroups:    res.UpdateGroups,
				Prefixes:        res.Prefixes,
				Shards:          res.Shards,
				TPS:             res.TPS,
				NsPerPrefixPeer: res.NsPerPrefixPeer,
				DurationSeconds: res.Duration.Seconds(),
				TableMode:       res.TableMode,
				GroupCount:      res.GroupCount,
				FanoutRatio:     res.FanoutRatio,
				BytesBuilt:      res.BytesBuilt,
				BytesSaved:      res.BytesSaved,
				Mem:             res.Mem,
				Host:            bench.Host(),
			})
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d rows)\n", *jsonOut, len(rows))
	}
	return nil
}

// liveRow is one record of the machine-readable live benchmark output.
// Host context and memory ride along so results stay comparable across
// machines.
type liveRow struct {
	Scenario        int            `json:"scenario"`
	ScenarioName    string         `json:"scenario_name"`
	AFI             string         `json:"afi,omitempty"`
	Prefixes        int            `json:"prefixes"`
	Shards          int            `json:"shards"`
	TPS             float64        `json:"tps"`
	DurationSeconds float64        `json:"duration_seconds"`
	FwdPPS          float64        `json:"fwd_pps,omitempty"`
	FIBEngine       string         `json:"fib_engine"`
	Repeats         int            `json:"repeats,omitempty"`
	Mem             bench.MemInfo  `json:"mem"`
	Host            bench.HostInfo `json:"host"`
}

// applyCPUs implements the -cpus knob: benchmarks exercising shard or
// snapshot-reader scaling are meaningless on one scheduler thread, so the
// knob raises GOMAXPROCS explicitly and the warning is loud when the run
// would still be single-threaded.
func applyCPUs(cpus int) {
	if cpus > 0 {
		runtime.GOMAXPROCS(cpus)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprint(os.Stderr,
			"WARNING: GOMAXPROCS=1 - shard scaling and the lock-free snapshot read path\n"+
				"         are invisible on a single scheduler thread; rerun with -cpus N (N>1)\n"+
				"         or on a multi-core host for meaningful concurrency numbers.\n")
	}
}

// parseShardList parses the -shards sweep value: a comma-separated list of
// worker counts, where 0 means GOMAXPROCS. Empty runs GOMAXPROCS only.
func parseShardList(s string) ([]int, error) {
	if s == "" {
		return []int{0}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -shards value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// lookupRow is one record of the machine-readable lookup benchmark
// output; the workload field tells the two passes apart.
type lookupRow struct {
	Workload           string         `json:"workload"` // "lookup" or "lookup_churn"
	Prefixes           int            `json:"prefixes"`
	FIBEngine          string         `json:"fib_engine"`
	Table              string         `json:"table"`
	Readers            int            `json:"readers"`
	LookupsPerSec      float64        `json:"lookups_per_sec"`
	NsPerLookup        float64        `json:"ns_per_lookup"`
	ChurnBatchesPerSec float64        `json:"churn_batches_per_sec,omitempty"`
	ChurnOpsPerSec     float64        `json:"churn_ops_per_sec,omitempty"`
	DurationSeconds    float64        `json:"duration_seconds"`
	Mem                bench.MemInfo  `json:"mem"`
	Host               bench.HostInfo `json:"host"`
}

func lookupRowFor(res bench.LookupResult, churn bool) lookupRow {
	row := lookupRow{
		Workload:        "lookup",
		Prefixes:        res.Prefixes,
		FIBEngine:       res.Engine,
		Table:           res.Table,
		Readers:         res.Readers,
		LookupsPerSec:   res.LookupsPerSec(),
		NsPerLookup:     res.NsPerLookup(),
		DurationSeconds: res.Duration.Seconds(),
		Mem:             res.Mem,
		Host:            bench.Host(),
	}
	if churn {
		row.Workload = "lookup_churn"
		row.ChurnBatchesPerSec = float64(res.ChurnBatches) / res.Duration.Seconds()
		row.ChurnOpsPerSec = float64(res.ChurnOps) / res.Duration.Seconds()
	}
	return row
}

func cmdLookup(args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	n := fs.Int("n", 1_000_000, "installed prefixes (synthetic full table)")
	engines := fs.String("engines", strings.Join(fib.EngineNames, ","), "comma-separated engines for the single-threaded pass")
	readers := fs.Int("readers", 0, "reader goroutines for the churn pass (0 = GOMAXPROCS)")
	churn := fs.Int("churn", 512, "writer batch size for the churn pass (0 = skip the churn pass)")
	duration := fs.Duration("duration", 2*time.Second, "measurement window per cell")
	seed := fs.Int64("seed", 5, "workload seed")
	cpus := fs.Int("cpus", 0, "set GOMAXPROCS for the run (0 = leave as is)")
	jsonOut := fs.String("json", "", "write machine-readable results to this file")
	fs.Parse(args)

	applyCPUs(*cpus)
	if *readers == 0 {
		*readers = runtime.GOMAXPROCS(0)
	}

	var rows []lookupRow
	fmt.Printf("Lookup benchmark: %d-prefix synthetic full table, %v per cell\n\n", *n, *duration)
	fmt.Printf("single-threaded LPM, bare engine:\n")
	fmt.Printf("  %-10s %14s %12s %14s %12s\n", "engine", "lookups/s", "ns/lookup", "heap", "rss")
	for _, name := range strings.Split(*engines, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		res, err := bench.RunLookup(bench.LookupConfig{
			TableSize: *n, Seed: *seed, Engine: name, Duration: *duration,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %14.0f %12.1f %14s %12s\n", name,
			res.LookupsPerSec(), res.NsPerLookup(), fmtBytes(res.Mem.AllocBytes), fmtBytes(res.Mem.RSSBytes))
		rows = append(rows, lookupRowFor(res, false))
	}

	if *churn > 0 {
		// The churn matrix is the point of the snapshot read path: reader
		// throughput under a writer committing delete+reinsert batches flat
		// out. The RWMutex wrappers stall readers on every commit; the
		// snapshot table must not.
		cells := []struct{ engine, table string }{
			{"patricia", "rwmutex"},
			{"poptrie", "rwmutex"},
			{"poptrie", "snapshot"},
		}
		fmt.Printf("\n%d readers vs churn writer (batches of %d delete+reinsert ops):\n", *readers, *churn)
		fmt.Printf("  %-20s %14s %12s %16s\n", "table", "lookups/s", "ns/lookup", "churn ops/s")
		for _, c := range cells {
			res, err := bench.RunLookup(bench.LookupConfig{
				TableSize: *n, Seed: *seed, Engine: c.engine, Table: c.table,
				Readers: *readers, Duration: *duration, ChurnBatch: *churn,
			})
			if err != nil {
				return err
			}
			fmt.Printf("  %-20s %14.0f %12.1f %16.0f\n", c.table+"-"+c.engine,
				res.LookupsPerSec(), res.NsPerLookup(), float64(res.ChurnOps)/res.Duration.Seconds())
			rows = append(rows, lookupRowFor(res, true))
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d rows)\n", *jsonOut, len(rows))
	}
	return nil
}

// fmtBytes renders a byte count with a binary unit for the console table.
func fmtBytes(b uint64) string {
	switch {
	case b == 0:
		return "-"
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	n := fs.Int("n", 20000, "routing table size in prefixes")
	fs.Parse(args)
	return bench.Ablate(os.Stdout, *n)
}

func cmdWorm(args []string) error {
	fs := flag.NewFlagSet("worm", flag.ExitOnError)
	fs.Parse(args)
	fmt.Println("Searching survivable update rates (binary search per system)...")
	rows, err := bench.WormStorm()
	if err != nil {
		return err
	}
	fmt.Println()
	bench.WriteWormReport(os.Stdout, rows)
	return nil
}

func cmdLiveSweep(args []string) error {
	fs := flag.NewFlagSet("livesweep", flag.ExitOnError)
	n := fs.Int("n", 10000, "routing table size in prefixes")
	num := fs.Int("num", 2, "scenario number 1-8")
	cpus := fs.Int("cpus", 0, "set GOMAXPROCS for the run (0 = leave as is)")
	fs.Parse(args)
	applyCPUs(*cpus)
	scn, err := bench.ScenarioByNum(*num)
	if err != nil {
		return err
	}
	fmt.Printf("Live cross-traffic sweep: %s on the Go router, table %d\n\n", scn, *n)
	fmt.Printf("%12s %12s %14s\n", "cross pps", "tps", "fwd pkts/s")
	for _, pps := range []float64{0, 50000, 100000, 250000, 500000, 1000000} {
		res, err := bench.RunLive(scn, bench.LiveConfig{
			TableSize: *n, Seed: 1, CrossPPS: pps, Timeout: 5 * time.Minute,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%12.0f %12.0f %14.0f\n", pps, res.TPS, res.FwdPacketsPerSec)
	}
	return nil
}

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	n := fs.Int("n", 0, "routing table size in prefixes (0 = conformance default)")
	num := fs.Int("num", 0, "scenario number 1-8 (0 = all)")
	profiles := fs.String("profiles", "clean,lossy-reorder,flap-reset", "comma-separated netem fault profiles")
	seed := fs.Int64("seed", 1701, "workload and fault-schedule seed")
	shards := fs.String("shards", "1,4", "comma-separated decision-worker counts to compare")
	jsonOut := fs.String("json", "", "write machine-readable conformance results to this file")
	fs.Parse(args)

	shardList, err := parseShardList(*shards)
	if err != nil {
		return err
	}
	var profileList []string
	for _, p := range strings.Split(*profiles, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if _, ok := netem.ProfileByName(p); !ok {
			return fmt.Errorf("unknown fault profile %q (known: %s)", p, strings.Join(netem.ProfileNames(), ", "))
		}
		profileList = append(profileList, p)
	}
	var scns []bench.Scenario
	if *num == 0 {
		scns = bench.Scenarios
	} else {
		scn, err := bench.ScenarioByNum(*num)
		if err != nil {
			return err
		}
		scns = []bench.Scenario{scn}
	}

	fmt.Printf("Chaos conformance: seed %d, profiles [%s], shards %v\n\n",
		*seed, strings.Join(profileList, " "), shardList)
	fmt.Printf("%-48s %-14s %7s %10s %8s %8s %8s  %s\n",
		"scenario", "profile", "shards", "duration", "tx", "retries", "faults", "state digest")
	var all []bench.ConformanceResult
	mismatches := 0
	for _, scn := range scns {
		// Digests must agree across every (profile, shards) cell of one
		// scenario: the fault profiles guarantee eventual delivery, so the
		// settled state is invariant.
		want := ""
		for _, profile := range profileList {
			for _, sh := range shardList {
				res, err := bench.RunConformance(scn, bench.ConformanceConfig{
					Profile:   profile,
					Seed:      *seed,
					Shards:    sh,
					TableSize: *n,
				})
				if err != nil {
					return err
				}
				all = append(all, res)
				st := res.Faults
				faults := st.Corrupts + st.Reorders + st.Stalls + st.ReadStalls + st.Resets
				digest := res.StateDigest()
				mark := ""
				if want == "" {
					want = digest
				} else if digest != want {
					mark = "  << MISMATCH"
					mismatches++
				}
				fmt.Printf("%-48s %-14s %7d %9.2fs %8d %8d %8d  %.16s%s\n",
					scn.String(), profile, res.Shards, res.Duration.Seconds(),
					res.Transactions, res.Retries, faults, digest, mark)
			}
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d runs)\n", *jsonOut, len(all))
	}
	if mismatches > 0 {
		return fmt.Errorf("chaos: %d digest mismatch(es) — router state diverged across shards or profiles", mismatches)
	}
	fmt.Println("\nall digests agree: conformance holds across shard counts and fault profiles")
	return nil
}

func cmdMRT(args []string) error {
	fs := flag.NewFlagSet("mrt", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bgpbench mrt <file>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tbl, err := mrt.Read(f)
	if err != nil {
		return err
	}
	fmt.Printf("MRT TABLE_DUMP_V2: collector %s, view %q\n", tbl.CollectorID, tbl.ViewName)
	fmt.Printf("peers: %d\n", len(tbl.Peers))
	for i, p := range tbl.Peers {
		fmt.Printf("  [%d] AS %-6d id %-15s addr %s\n", i, p.AS, p.ID, p.Addr)
	}
	lenHist := map[int]int{}
	pathLenSum, entries := 0, 0
	origins := map[uint32]int{}
	for _, p := range tbl.Prefixes {
		lenHist[p.Prefix.Len()]++
		for _, e := range p.Entries {
			entries++
			pathLenSum += e.Attrs.ASPath.Length()
			if o, ok := e.Attrs.ASPath.Origin(); ok {
				origins[o]++
			}
		}
	}
	fmt.Printf("prefixes: %d (%d RIB entries)\n", len(tbl.Prefixes), entries)
	fmt.Println("prefix length histogram:")
	for l := 0; l <= 32; l++ {
		if lenHist[l] > 0 {
			fmt.Printf("  /%-3d %7d  %s\n", l, lenHist[l], strings.Repeat("#", 1+lenHist[l]*50/len(tbl.Prefixes)))
		}
	}
	if entries > 0 {
		fmt.Printf("mean AS-path length: %.2f\n", float64(pathLenSum)/float64(entries))
	}
	type oc struct {
		as uint32
		n  int
	}
	var top []oc
	for a, n := range origins {
		top = append(top, oc{a, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n })
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Println("top origin ASNs:")
	for _, o := range top {
		fmt.Printf("  AS %-6d %d prefixes\n", o.as, o.n)
	}
	return nil
}
