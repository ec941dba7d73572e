package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixturePackages are the testdata packages exercised with the exact
// production configuration (DefaultConfig scopes them explicitly, since
// `...` wildcards never descend into testdata).
var fixturePackages = []string{
	fixturePrefix + "detclock",
	fixturePrefix + "pooledbuf",
	fixturePrefix + "internedattr",
	fixturePrefix + "lockdiscipline",
	fixturePrefix + "errdrop",
	fixturePrefix + "snapshotimmut",
	fixturePrefix + "afifamily",
	fixturePrefix + "afifamily/caller",
	fixturePrefix + "shardowner",
	fixturePrefix + "readpurity",
}

// want is one expectation parsed from a `// want analyzer "substring"`
// comment in a fixture source file.
type want struct {
	file     string // basename
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantSpecRe = regexp.MustCompile(`(\w+)\s+"([^"]*)"`)

// parseWants scans every fixture .go file for want comments. Several
// expectations may share one line: `// want a "x" b "y"`.
func parseWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantSpecRe.FindAllStringSubmatch(line[idx+len("// want "):], -1) {
				wants = append(wants, &want{
					file:     filepath.Base(path),
					line:     n,
					analyzer: m[1],
					substr:   m[2],
				})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	if len(wants) == 0 {
		t.Fatal("no want comments found under testdata; fixture set is broken")
	}
	return wants
}

// TestFixtures runs the full production analyzer suite over every
// fixture package and requires an exact match between the diagnostics
// produced and the want comments in the fixture sources: every want
// must be hit, and every finding must be expected.
func TestFixtures(t *testing.T) {
	pkgs, err := Load("", fixturePackages)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	wants := parseWants(t, "testdata")

	perAnalyzer := map[string]int{}
	for i := range diags {
		d := diags[i]
		perAnalyzer[d.Analyzer]++
		matched := false
		for _, w := range wants {
			if w.file == filepath.Base(d.Position.Filename) &&
				w.line == d.Position.Line &&
				w.analyzer == d.Analyzer &&
				strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected %s finding matching %q, got none",
				w.file, w.line, w.analyzer, w.substr)
		}
	}

	// Every analyzer in the suite must prove itself against at least one
	// flagged fixture; a silent analyzer is indistinguishable from a
	// broken one.
	for _, a := range Analyzers() {
		if perAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s produced no findings on its fixtures", a.Name)
		}
	}
}

// TestRepoClean is the gate invariant: the production configuration
// must report zero findings on the repository itself (everything is
// fixed or carries a justified allow comment).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
