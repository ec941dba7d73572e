package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainExitCodes pins the bgplint process contract: non-zero on every
// fixture package (each contains known violations), distinct code for
// load failures, and zero only on clean input.
func TestMainExitCodes(t *testing.T) {
	for _, pkg := range fixturePackages {
		var out, errb strings.Builder
		code := Main([]string{pkg}, &out, &errb)
		if code != ExitFindings {
			t.Errorf("Main(%s) = %d, want %d (findings)\nstdout:\n%s\nstderr:\n%s",
				pkg, code, ExitFindings, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), strings.TrimPrefix(pkg, fixturePrefix)) {
			t.Errorf("Main(%s): findings do not mention the fixture package:\n%s", pkg, out.String())
		}
	}

	var out, errb strings.Builder
	if code := Main([]string{"bgpbench/internal/does-not-exist"}, &out, &errb); code != ExitError {
		t.Errorf("Main on unknown package = %d, want %d (load error)", code, ExitError)
	}

	out.Reset()
	errb.Reset()
	// The analysis package itself is clean (and cheap to load).
	if code := Main([]string{"bgpbench/internal/analysis"}, &out, &errb); code != ExitClean {
		t.Errorf("Main on clean package = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitClean, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

// TestMainJSON pins the -json output shape consumed by tooling.
func TestMainJSON(t *testing.T) {
	var out, errb strings.Builder
	code := Main([]string{"-json", fixturePrefix + "detclock"}, &out, &errb)
	if code != ExitFindings {
		t.Fatalf("Main -json = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json produced an empty findings array for a flagged fixture")
	}
	for _, d := range diags {
		if d.Analyzer != "detclock" {
			t.Errorf("unexpected analyzer %q in detclock fixture findings", d.Analyzer)
		}
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

// TestMainAllowInventory pins the -allows markdown table: one row per
// valid directive, written to a file or stdout.
func TestMainAllowInventory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allows.md")
	var out, errb strings.Builder
	// The pooledbuf fixture carries reasoned allows on its good shapes.
	code := Main([]string{"-allows", path, fixturePrefix + "pooledbuf"}, &out, &errb)
	if code != ExitFindings {
		t.Fatalf("Main -allows = %d, want %d (fixture has findings)\nstderr:\n%s", code, ExitFindings, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-allows wrote no file: %v", err)
	}
	table := string(data)
	if !strings.Contains(table, "| Location | Analyzers | Reason |") {
		t.Errorf("inventory missing header:\n%s", table)
	}
	if !strings.Contains(table, "pooledbuf") || strings.Count(table, "\n") < 3 {
		t.Errorf("inventory missing fixture allows:\n%s", table)
	}
}

// TestMainList pins the -list inventory: one line per analyzer.
func TestMainList(t *testing.T) {
	var out, errb strings.Builder
	if code := Main([]string{"-list"}, &out, &errb); code != ExitClean {
		t.Fatalf("Main -list = %d, want 0", code)
	}
	for _, a := range Analyzers() {
		if !strings.Contains(out.String(), a.Name+": ") {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out.String())
		}
	}
}
