package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReadPurity proves the wait-free contract of the FIB read surface. The
// configured entrypoints — SnapshotTable lookups, metrics, and Walk,
// plus the poptrie snapshot methods behind them — run on every worker
// at full lookup rate; DESIGN §4 promises they never block a writer or
// each other. The analyzer enforces what that promise needs: no lock
// acquisition, no sync.Pool traffic, no channel operation, no goroutine
// spawn, and no write to shared state anywhere in the transitive call
// tree of an entrypoint.
//
// Purity is computed per function and exported as a cross-package fact,
// so an entrypoint in internal/fib calling a helper in
// internal/netaddr is checked against the helper's real body, analyzed
// when its package was visited earlier in dependency order.
//
// Deliberately allowed, because they cannot block: sync/atomic calls
// (the metrics counters), writes to function-local state, calls through
// function-typed values (Walk's yield callback — the caller's own
// code), and dynamic interface dispatch (opaque by construction; the
// concrete read-path implementations are all listed as entrypoints and
// checked directly).
var ReadPurity = &Analyzer{
	Name: "readpurity",
	Doc:  "the wait-free FIB read path must not lock, touch pools, use channels, or write shared state",
	Run:  runReadPurity,
}

// purityFactImpure marks a module function whose body (or transitive
// callee) performs a banned operation; the fact value is the
// impureReason of the first offense.
const purityFactImpure = "impure"

// impureReason describes one banned operation for reporting.
type impureReason struct {
	Pos  token.Pos
	What string
	// Via is the call chain suffix ("x calls y") when the offense lives
	// in a callee rather than the reported function itself.
	Via string
}

// puritySummary is the per-function analysis result.
type puritySummary struct {
	fn      *types.Func
	body    *ast.BlockStmt
	reasons []impureReason // banned operations in this body
	callees []calleeRef    // statically resolved calls
}

type calleeRef struct {
	fn  *types.Func
	pos token.Pos
}

func runReadPurity(pass *Pass) error {
	allow := map[string]bool{}
	for _, f := range pass.Config.Purity.AllowCallees {
		allow[f] = true
	}
	entry := map[string]bool{}
	for _, f := range pass.Config.Purity.Entrypoints {
		entry[f] = true
	}

	// Summarize every declared function in the package; function
	// literals are analyzed inline via their parents.
	summaries := map[*types.Func]*puritySummary{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				summaries[obj] = summarizePurity(pass, obj, fd.Body, allow)
			}
		}
	}

	// Propagate impurity through the package-local call graph to a
	// fixpoint, then export facts so importing packages see the result.
	for changed := true; changed; {
		changed = false
		for _, s := range summaries {
			if _, done := pass.ObjectFact(s.fn, purityFactImpure); done {
				continue
			}
			r, impure := firstImpurity(pass, s, summaries)
			if impure {
				pass.ExportObjectFact(s.fn, purityFactImpure, r)
				changed = true
			}
		}
	}

	// Report at the entrypoints declared in this package.
	for _, s := range summaries {
		if !entry[s.fn.FullName()] {
			continue
		}
		reportImpurities(pass, s, summaries, map[*types.Func]bool{})
	}
	return nil
}

// firstImpurity returns the first banned operation reachable from s:
// its own reasons, or an impure callee (package-local summary or
// cross-package fact).
func firstImpurity(pass *Pass, s *puritySummary, summaries map[*types.Func]*puritySummary) (impureReason, bool) {
	if len(s.reasons) > 0 {
		return s.reasons[0], true
	}
	for _, c := range s.callees {
		if v, ok := pass.ObjectFact(c.fn, purityFactImpure); ok {
			inner := v.(impureReason)
			via := shortFuncName(c.fn.FullName())
			if inner.Via != "" {
				via += " -> " + inner.Via
			}
			return impureReason{Pos: c.pos, What: inner.What, Via: via}, true
		}
		if sub, ok := summaries[c.fn]; ok && len(sub.reasons) > 0 {
			return impureReason{Pos: c.pos, What: sub.reasons[0].What, Via: shortFuncName(c.fn.FullName())}, true
		}
	}
	return impureReason{}, false
}

// reportImpurities walks the call tree under an entrypoint and reports
// every banned operation once, at its own position for package-local
// code and at the call site for cross-package callees.
func reportImpurities(pass *Pass, s *puritySummary, summaries map[*types.Func]*puritySummary, seen map[*types.Func]bool) {
	if seen[s.fn] {
		return
	}
	seen[s.fn] = true
	for _, r := range s.reasons {
		pass.Reportf(r.Pos, "%s on the wait-free read path (in %s)", r.What, shortFuncName(s.fn.FullName()))
	}
	for _, c := range s.callees {
		if sub, ok := summaries[c.fn]; ok {
			reportImpurities(pass, sub, summaries, seen)
			continue
		}
		if v, ok := pass.ObjectFact(c.fn, purityFactImpure); ok {
			r := v.(impureReason)
			via := shortFuncName(c.fn.FullName())
			if r.Via != "" {
				via += " -> " + r.Via
			}
			pass.Reportf(c.pos, "%s on the wait-free read path (via %s)", r.What, via)
		}
	}
}

// summarizePurity records banned operations and static callees of one
// function body.
func summarizePurity(pass *Pass, fn *types.Func, body *ast.BlockStmt, allow map[string]bool) *puritySummary {
	s := &puritySummary{fn: fn, body: body}
	info := pass.Pkg.Info
	ban := func(pos token.Pos, what string) {
		s.reasons = append(s.reasons, impureReason{Pos: pos, What: what})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal called on the read path is summarized through
			// its enclosing function: its body is part of this walk.
			return true
		case *ast.GoStmt:
			ban(x.Pos(), "goroutine spawn")
			return true
		case *ast.SendStmt:
			ban(x.Pos(), "channel send")
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ban(x.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			ban(x.Pos(), "select over channels")
			return true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if pos, shared := sharedWrite(pass, lhs); shared {
					ban(pos, "write to shared state")
				}
			}
		case *ast.IncDecStmt:
			if pos, shared := sharedWrite(pass, x.X); shared {
				ban(pos, "write to shared state")
			}
		case *ast.CallExpr:
			classifyPurityCall(pass, s, x, allow)
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ban(x.Pos(), "range over channel")
				}
			}
		}
		return true
	})
	return s
}

// classifyPurityCall buckets one call: banned primitive (lock, pool,
// close), allowed (atomics, builtins, function-typed values, interface
// dispatch, audited allowlist), or a static callee to check
// transitively.
func classifyPurityCall(pass *Pass, s *puritySummary, call *ast.CallExpr, allow map[string]bool) {
	info := pass.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "close" {
				s.reasons = append(s.reasons, impureReason{Pos: call.Pos(), What: "channel close"})
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		// Dynamic: a function value (Walk's yield — the caller's own
		// code) or interface dispatch (opaque). Allowed by design.
		return
	}
	name := fn.FullName()
	if allow[name] {
		return
	}
	pkg := fn.Pkg()
	if pkg != nil {
		switch pkg.Path() {
		case "sync":
			switch fn.Name() {
			case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock", "Wait", "Do":
				s.reasons = append(s.reasons, impureReason{Pos: call.Pos(), What: "sync." + recvTypeName(fn) + "." + fn.Name() + " (blocking primitive)"})
				return
			case "Get", "Put":
				if recvTypeName(fn) == "Pool" {
					s.reasons = append(s.reasons, impureReason{Pos: call.Pos(), What: "sync.Pool." + fn.Name() + " (pool traffic)"})
					return
				}
			}
			return
		case "sync/atomic":
			return // wait-free by definition
		}
	}
	// Module-internal static call: record for transitive checking. Code
	// outside the module (stdlib) has no facts; the direct bans above
	// cover the blocking primitives it could reach.
	if pkg != nil && strings.HasPrefix(pkg.Path(), modulePathOf(pass)) {
		s.callees = append(s.callees, calleeRef{fn: fn, pos: call.Pos()})
	}
}

// recvTypeName names the receiver type of a method, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// modulePathOf returns the module prefix facts exist under: the first
// path segment of the package being analyzed ("bgpbench" for the real
// module, and the same for the fixture packages, which live under
// bgpbench/internal/analysis/testdata).
func modulePathOf(pass *Pass) string {
	p := pass.Pkg.ImportPath
	if i := strings.Index(p, "/"); i >= 0 {
		return p[:i]
	}
	return p
}

// sharedWrite decides whether an assignment destination is shared
// state. Local variables (and blank) are private; anything reached
// through a selector, index, or dereference whose base is not a
// function-local value — receiver fields, globals, pointees handed in
// from outside — is shared.
func sharedWrite(pass *Pass, lhs ast.Expr) (token.Pos, bool) {
	info := pass.Pkg.Info
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return token.NoPos, false
			}
			obj := info.Defs[x]
			if obj == nil {
				obj = info.Uses[x]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return token.NoPos, false
			}
			if v.IsField() {
				return x.Pos(), true
			}
			// Package-level variable: shared. Local or parameter:
			// private — but writing *through* a pointer-typed base was
			// already unwrapped below and reported there.
			if v.Parent() == v.Pkg().Scope() {
				return x.Pos(), true
			}
			return token.NoPos, false
		case *ast.SelectorExpr:
			// Writing a field: shared when the base is a pointer (the
			// pointee outlives the function) or itself shared.
			if tv, ok := info.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return x.Sel.Pos(), true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			// Writing an element: slices and maps alias shared backing
			// stores unless provably local; stay conservative only for
			// bases that are not plain locals.
			if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if v, ok := info.Uses[base].(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() && !isParam(pass, v) {
					return token.NoPos, false // element of a local slice/map
				}
			}
			return x.Pos(), true
		case *ast.StarExpr:
			return x.Pos(), true // write through a pointer
		default:
			return token.NoPos, false
		}
	}
}

// isParam reports whether v is a parameter (or receiver) of any
// function in the package: parameters alias caller-owned state, so
// writes through them are shared.
func isParam(pass *Pass, v *types.Var) bool {
	// A parameter's Parent is the function scope, same as a local; the
	// distinction that matters here is pointer-ness, which the selector
	// and star cases already catch. Treat slice/map params as shared.
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if pass.Pkg.Info.Defs[name] == v {
						return true
					}
				}
			}
			if fd.Recv != nil {
				for _, field := range fd.Recv.List {
					for _, name := range field.Names {
						if pass.Pkg.Info.Defs[name] == v {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// shortFuncName trims the package path qualifier for report messages:
// "(*a/b/fib.Poptrie).Lookup" -> "(*fib.Poptrie).Lookup".
func shortFuncName(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	tail := full[i+1:]
	switch {
	case strings.HasPrefix(full, "(*"):
		return "(*" + tail
	case strings.HasPrefix(full, "("):
		return "(" + tail
	default:
		return tail
	}
}
