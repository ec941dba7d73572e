// Package analysis is bgpbench's project-invariant static analyzer
// suite (bgplint). It is built on the standard library only (go/parser,
// go/ast, go/types, go/importer, with package discovery driven by `go
// list -json`): no golang.org/x/tools dependency, so the lint gate
// needs nothing beyond the Go toolchain already required to build the
// repo.
//
// RunAnalyzers propagates analyzer facts across packages in dependency
// order, so an analyzer can follow a purity obligation from
// internal/fib into its dependencies, or an ownership marker from the
// package declaring a type into the packages using it.
//
// The generic vet checks catch generic bugs; the analyzers here encode
// invariants specific to this codebase that vet cannot know about:
//
//   - detclock: deterministic packages (netem, platform, damping, the
//     bench conformance path) must not read the wall clock or use global
//     math/rand state outside the pluggable Clock implementations.
//   - pooledbuf: values obtained from a sync.Pool must not escape the
//     function that obtained them except through an audited ownership
//     transfer, and every Get needs a matching Put.
//   - internedattr: interned *wire.PathAttrs are compared by pointer and
//     never mutated after interning.
//   - lockdiscipline: no blocking I/O while holding the router mutex.
//   - errdrop: no silently discarded error results in the protocol
//     packages (wire, session, fsm), stricter than vet's unusedresult.
//   - snapshotimmut: published FIB snapshots are immutable; only the
//     audited builder functions may write to snapshot internals.
//   - afifamily: switches over the address-family enum cover every
//     family (or carry a default), and the IPv4-truncating Addr.V4
//     accessor does not leak outside its package unaudited.
//   - shardowner: values of worker-owned types (annotated
//     //bgplint:owned-by in the type's doc comment) must stay on their
//     shard worker: escaping into a goroutine closure, a channel send,
//     or an interface is a finding.
//   - readpurity: the configured wait-free read entrypoints (the FIB
//     snapshot lookup/metrics/walk path) must not acquire locks,
//     allocate from pools, write shared state, or touch channels —
//     checked transitively through callees via cross-package facts.
//
// Findings can be suppressed line-by-line with a reasoned allow
// directive (see suppress.go):
//
//	//bgplint:allow(<analyzer>[,<analyzer>...]) reason=<justification>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory and enforced; a directive that suppresses nothing
// is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding: an analyzer name, a position, and a
// message.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a single type-checked
// package and reports findings through the pass; a non-nil error aborts
// the whole run (an analyzer bug, not a finding).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one package, plus the shared
// cross-package fact store.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Config   *Config
	Facts    *FactStore

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetClock,
		PooledBuf,
		InternedAttr,
		LockDiscipline,
		ErrDrop,
		SnapshotImmut,
		AFIFamily,
		ShardOwner,
		ReadPurity,
	}
}

// AnalyzerByName finds one analyzer by name.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// analyzerNames returns the known-name set used to validate allow
// directives (bgplint's own pseudo-analyzer included).
func analyzerNames(analyzers []*Analyzer) map[string]bool {
	m := map[string]bool{driverName: true}
	for _, a := range analyzers {
		m[a.Name] = true
	}
	return m
}

// RunAnalyzers applies the analyzers to the loaded packages in
// dependency order and returns the surviving findings (allow-directive
// suppressed ones removed) sorted by position. Dependency-only packages
// are analyzed too — that is what primes the cross-package fact store —
// but their diagnostics are dropped: only the requested packages gate.
func RunAnalyzers(pkgs []*Package, cfg *Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFactStore()
	known := analyzerNames(analyzers)
	var out []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		allows := collectAllows(pkg, known, func(pos token.Position, format string, args ...any) {
			pkgDiags = append(pkgDiags, Diagnostic{
				Analyzer: driverName,
				Position: pos,
				Message:  fmt.Sprintf(format, args...),
			})
		})
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Config: cfg, Facts: facts}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diags {
				if allows.suppress(a.Name, d.Position.Filename, d.Position.Line) {
					continue
				}
				pkgDiags = append(pkgDiags, d)
			}
		}
		pkgDiags = append(pkgDiags, staleAllows(allows)...)
		if !pkg.DepOnly {
			out = append(out, pkgDiags...)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// inspectFiles runs fn over every node of every file in the package.
func inspectFiles(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
