package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Exit codes for Main, mirroring the convention of go vet: clean, has
// findings, failed to even load.
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// jsonDiagnostic is the stable machine-readable form emitted by -json.
type jsonDiagnostic struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Column    int    `json:"column"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined,omitempty"`
}

// Main implements the bgplint command: load the requested packages,
// run every analyzer, print findings, and return a process exit code.
// It is a plain function over writers so the regression tests can call
// it in-process and assert on exit codes and output.
func Main(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bgplint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonOut := flags.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	list := flags.Bool("list", false, "list available analyzers and exit")
	dir := flags.String("C", ".", "directory to resolve packages from")
	baselinePath := flags.String("baseline", "", "committed baseline file: listed findings stay visible but do not fail; new or stale entries do")
	writeBaseline := flags.Bool("write-baseline", false, "rewrite the -baseline file from the current findings and exit clean")
	allowsOut := flags.String("allows", "", "write the //bgplint:allow inventory as a markdown table to this file ('-' for stdout)")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: bgplint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nSuppress a finding with `//bgplint:allow(<analyzer>) reason=<justification>`\non the offending line or the line above it. The reason is mandatory.\n")
		fmt.Fprintf(stderr, "\nFlags:\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return ExitError
	}
	if *list {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	absDir, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "bgplint: %v\n", err)
		return ExitError
	}
	rel := func(file string) string {
		if r, err := filepath.Rel(absDir, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(file)
	}

	pkgs, err := Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "bgplint: %v\n", err)
		return ExitError
	}
	diags, err := RunAnalyzers(pkgs, DefaultConfig(), Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "bgplint: %v\n", err)
		return ExitError
	}

	if *allowsOut != "" {
		if err := writeAllowInventory(*allowsOut, CollectAllowInventory(pkgs, rel), stdout); err != nil {
			fmt.Fprintf(stderr, "bgplint: %v\n", err)
			return ExitError
		}
	}

	// Baseline partitioning: matched findings stay visible (marked),
	// new findings and stale ledger entries fail.
	var stale []BaselineEntry
	failing := diags
	if *baselinePath != "" && !*writeBaseline {
		base, err := LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "bgplint: %v\n", err)
			return ExitError
		}
		var matched []Diagnostic
		failing, matched, stale = DiffBaseline(base, diags, rel)
		diags = append(failing, matched...)
		sortDiagnostics(diags)
	}
	if *writeBaseline {
		if *baselinePath == "" {
			fmt.Fprintf(stderr, "bgplint: -write-baseline requires -baseline <file>\n")
			return ExitError
		}
		var prev *Baseline
		if b, err := LoadBaseline(*baselinePath); err == nil {
			prev = b
		}
		if err := WriteBaseline(*baselinePath, BuildBaseline(diags, prev, rel)); err != nil {
			fmt.Fprintf(stderr, "bgplint: %v\n", err)
			return ExitError
		}
		fmt.Fprintf(stderr, "bgplint: wrote %s (%d finding(s) audited)\n", *baselinePath, len(diags))
		return ExitClean
	}

	switch {
	case *jsonOut:
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:      d.Position.Filename,
				Line:      d.Position.Line,
				Column:    d.Position.Column,
				Analyzer:  d.Analyzer,
				Message:   d.Message,
				Baselined: d.Baselined,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "bgplint: %v\n", err)
			return ExitError
		}
	default:
		for _, d := range diags {
			if d.Baselined {
				fmt.Fprintf(stdout, "%s [baselined]\n", d.String())
			} else {
				fmt.Fprintln(stdout, d.String())
			}
		}
	}

	exit := ExitClean
	if len(failing) > 0 {
		fmt.Fprintf(stderr, "bgplint: %d new finding(s)\n", len(failing))
		exit = ExitFindings
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "bgplint: stale baseline entry: %s: %s: %s (x%d) — finding is gone, remove it from the baseline\n",
			e.File, e.Analyzer, e.Message, e.Count)
		exit = ExitFindings
	}
	return exit
}

// writeAllowInventory renders the suppression inventory as the markdown
// table embedded in the docs.
func writeAllowInventory(path string, entries []AllowEntry, stdout io.Writer) error {
	var b strings.Builder
	b.WriteString("# bgplint suppression inventory\n\n")
	b.WriteString("Every `//bgplint:allow` directive in the tree, with its mandatory\n")
	b.WriteString("audit reason. Generated by `make lint-allows`; do not edit by hand.\n\n")
	b.WriteString("| Location | Analyzers | Reason |\n")
	b.WriteString("| --- | --- | --- |\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "| `%s:%d` | %s | %s |\n", e.File, e.Line, strings.Join(e.Analyzers, ", "), e.Reason)
	}
	if path == "-" {
		_, err := io.WriteString(stdout, b.String())
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
