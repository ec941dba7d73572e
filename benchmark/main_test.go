package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestNamesMatchManifest runs every workload at 2k prefixes, untraced and
// traced, and checks that the workload names, and the metric names and
// units each run prints, are exactly those BENCHMARK.json declares — so
// tier-1 fails when the program and its contract drift apart. It also
// holds the small runs to the benchmark's own correctness checks.
func TestNamesMatchManifest(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameSet(t, "workloads", have, declared)

	for _, w := range workloads {
		w.prefixes = 2000
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 0.4, trace: trace, outDir: t.TempDir()}
			rep, err := run(w, o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if rep.failed != 0 {
				t.Errorf("%s trace=%t: %d of %d failed: %s", w.name, trace, rep.failed, rep.attempted, strings.Join(rep.notes, "; "))
			}
			var out bytes.Buffer
			printReport(&out, rep, o)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Metrics map[string]struct {
					Unit string `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result object: %v", w.name, trace, err)
			}
			var printed, want []string
			for name, v := range res.Metrics {
				printed = append(printed, name+" "+v.Unit)
			}
			if trace {
				for _, d := range m.PerLayer {
					want = append(want, d.Name+" "+d.Unit)
				}
			} else {
				for _, d := range m.EndToEnd {
					want = append(want, d.Name+" "+d.Unit)
				}
			}
			sameSet(t, w.name+" metrics", printed, want)
		}
	}
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: program has\n  %s\nBENCHMARK.json declares\n  %s", what, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
