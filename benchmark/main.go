// Command benchmark is the repository's ruler: it starts the real
// core.Router over loopback TCP between at most two BGP sessions, runs one
// of four workloads against it and prints the end-to-end metrics declared
// in BENCHMARK.json (or, with -trace 1, the per-layer ones), having checked
// the router's final state against digests computed from the generated
// table. README.md says why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// manifest is the part of BENCHMARK.json the program reads back: the
// declared names, and the bounds -aa holds two runs of the same code to.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// host is recorded with every result so a number is never read without the
// machine that produced it.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	GoVersion  string `json:"go"`
	Transport  string `json:"transport"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 20, "how long one workload measures")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics instead of the end-to-end ones")
		aa      = flag.Bool("aa", false, "run the suite twice on -seed and once on -seed+1; fail if the two equal runs differ by more than a bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The router sizes its shard count from GOMAXPROCS; more Ps than CPUs
	// measures the scheduler, not the router.
	if p, c := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > c {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure\n", p, c)
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: filepath.Join("benchmark", "out")}
	ok := true
	if *aa {
		ok = runAA(os.Stdout, selected, o)
	} else {
		for _, w := range selected {
			rep, err := run(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printReport(os.Stdout, rep, o)
			ok = ok && rep.correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// printReport prints every metric by name with its unit, the notes, the
// host, and last the contract's JSON object.
func printReport(out io.Writer, rep *report, o runOpts) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "== %s seed=%d seconds=%g trace=%t\n", rep.workload, o.seed, o.seconds, o.trace)
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := rep.values[d.name]
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(out, "%-40s %14.4f %-10s", d.name, v, d.unit)
		if s, ok := rep.spread[d.name]; ok {
			fmt.Fprintf(out, " median of %d, quartiles %.4f .. %.4f", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(out)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(out, "note:", n)
	}
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // only plain numbers, strings and bools are marshalled
		}
		fmt.Fprintf(out, "%s\n", b)
	}
	emit(map[string]any{"workload": rep.workload, "seed": o.seed, "host": host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Shards: rep.shards,
		GoVersion: runtime.Version(), Transport: "loopback TCP, generator in-process, 2 connections at most",
	}})
	emit(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
}

// runAA runs the selected workloads twice on the same seed and once on the
// next, prints how far each end-to-end metric moved beside its bound, and
// reports whether every same-seed difference stayed within its bound. The
// other-seed difference is shown so later claims know what an unseen seed
// costs; it is not gated.
func runAA(out io.Writer, selected []workload, o runOpts) bool {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -aa reads its bounds from BENCHMARK.json: %v\n", err)
		return false
	}
	o.trace = false
	ok := true
	var runs [3]map[string]*report
	for i := range runs {
		runs[i] = map[string]*report{}
		oi := o
		if i == 2 {
			oi.seed++
		}
		for _, w := range selected {
			rep, err := run(w, oi)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return false
			}
			printReport(out, rep, oi)
			ok = ok && rep.correct
			runs[i][w.name] = rep
		}
	}
	fmt.Fprintf(out, "== A/A on seed %d, and seed %d against it (positive = worse)\n", o.seed, o.seed+1)
	fmt.Fprintf(out, "%-16s %-16s %10s %10s %10s\n", "workload", "metric", "A/A", "bound", "other seed")
	for _, w := range selected {
		for _, e := range m.EndToEnd {
			worse := func(from, to *report) float64 {
				d := ratio(to.values[e.Name]-from.values[e.Name], from.values[e.Name])
				if e.Better == "higher" {
					d = -d
				}
				return d
			}
			aaDiff := worse(runs[0][w.name], runs[1][w.name])
			verdict := ""
			if aaDiff > e.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "%-16s %-16s %+9.2f%% %9.0f%% %+9.2f%%%s\n", w.name, e.Name,
				100*aaDiff, 100*e.Bound, 100*worse(runs[0][w.name], runs[2][w.name]), verdict)
		}
	}
	return ok
}
