package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardOwner enforces single-goroutine ownership for the hot-path state
// the update-group machinery keeps per shard worker: group state,
// catch-ups, dispatch buffers. These types are mutated without
// synchronization by design — the shard worker is their only toucher —
// so any route by which a value could reach another goroutine is a
// data race waiting for load to expose it.
//
// Ownership is declared in the source, not the config: a type whose doc
// comment contains a line
//
//	//bgplint:owned-by <owner>
//
// is worker-owned. The annotation is exported as a cross-package fact,
// so an owned type declared in internal/core is protected in every
// importing package too. The analyzer flags the three escape routes
// that hand a value to foreign code:
//
//   - capture by a goroutine closure (or any function literal that is
//     not invoked on the spot);
//   - a channel send of the value;
//   - storing or passing the value as an interface, after which
//     arbitrary code can retain it.
//
// Methods on the owned type itself are exempt: the receiver is how the
// worker touches its own state.
var ShardOwner = &Analyzer{
	Name: "shardowner",
	Doc:  "worker-owned types (//bgplint:owned-by) must not escape their shard worker goroutine",
	Run:  runShardOwner,
}

const (
	ownedByMarker  = "bgplint:owned-by"
	ownerFactOwned = "ownedBy" // on *types.TypeName: the owner string
)

func runShardOwner(pass *Pass) error {
	collectOwnedTypes(pass)
	for _, f := range pass.Pkg.Files {
		checkOwnedEscapes(pass, f)
	}
	return nil
}

// collectOwnedTypes scans type declarations for the owned-by marker and
// exports the ownership as a fact keyed by the *types.TypeName.
func collectOwnedTypes(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				owner := ""
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
						if rest, ok := strings.CutPrefix(text, ownedByMarker); ok {
							owner = strings.TrimSpace(rest)
						}
					}
				}
				if owner == "" {
					continue
				}
				if tn, ok := pass.Pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
					pass.ExportObjectFact(tn, ownerFactOwned, owner)
				}
			}
		}
	}
}

// ownedTypeOf returns the owner annotation for t (dereferencing one
// level of pointer), or "" if t is not an owned type.
func ownedTypeOf(pass *Pass, t types.Type) (string, string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	if v, ok := pass.ObjectFact(n.Obj(), ownerFactOwned); ok {
		return n.Obj().Name(), v.(string)
	}
	return "", ""
}

// exprOwned reports the owned type behind expression e, if any.
func exprOwned(pass *Pass, e ast.Expr) (string, string) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok {
		return "", ""
	}
	return ownedTypeOf(pass, tv.Type)
}

// checkOwnedEscapes walks one file flagging the escape routes.
func checkOwnedEscapes(pass *Pass, f *ast.File) {
	// Parent tracking: function literals need to know whether they are
	// invoked immediately (same goroutine, no escape) and whether they
	// sit under a go statement.
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.SendStmt:
			if name, owner := exprOwned(pass, x.Value); name != "" {
				pass.Reportf(x.Value.Pos(), "%s is owned by the %s goroutine; sending it on a channel hands it to another goroutine", name, owner)
			}
		case *ast.FuncLit:
			checkClosureCaptures(pass, x, stack)
		case *ast.CallExpr:
			checkInterfaceArgs(pass, x)
		case *ast.AssignStmt:
			checkInterfaceAssign(pass, x)
		}
		return true
	})
}

// checkClosureCaptures flags owned values captured by a function
// literal that can run on another goroutine: the closure is the subject
// of a go statement, or it escapes the expression that created it
// (stored, passed, returned) instead of being called in place.
func checkClosureCaptures(pass *Pass, fl *ast.FuncLit, stack []ast.Node) {
	inGo := false
	calledInPlace := false
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.GoStmt:
			inGo = true
		case *ast.CallExpr:
			if p.Fun == fl {
				calledInPlace = true
			}
		}
	}
	if calledInPlace && !inGo {
		return
	}
	// Free variables: identifiers used in the body whose declaration
	// lies outside the literal.
	seen := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if fl.Pos() <= obj.Pos() && obj.Pos() <= fl.End() {
			return true // declared inside the literal
		}
		if name, owner := ownedTypeOf(pass, obj.Type()); name != "" {
			seen[obj] = true
			how := "a closure that escapes"
			if inGo {
				how = "a goroutine closure"
			}
			// Anchor at the literal, not the captured use: the closure
			// is the escape route, and that is where a suppression
			// belongs.
			pass.Reportf(fl.Pos(), "%s value %s is owned by the %s goroutine; captured by %s", name, id.Name, owner, how)
		}
		return true
	})
}

// checkInterfaceArgs flags owned values passed where the parameter type
// is an interface: the callee may retain the value beyond the worker's
// control.
func checkInterfaceArgs(pass *Pass, call *ast.CallExpr) {
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		name, owner := exprOwned(pass, arg)
		if name == "" {
			continue
		}
		pt := paramTypeAt(sig, i)
		if pt == nil {
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); ok {
			pass.Reportf(arg.Pos(), "%s is owned by the %s goroutine; passing it as %s lets the callee retain it", name, owner, pt.String())
		}
	}
}

// callSignature resolves the signature of the called function, for both
// static and dynamic calls. Conversion expressions return nil.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramTypeAt returns the static type of parameter i, accounting for
// variadics.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// checkInterfaceAssign flags owned values assigned into
// interface-typed destinations.
func checkInterfaceAssign(pass *Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		if len(as.Lhs) != len(as.Rhs) {
			break
		}
		name, owner := exprOwned(pass, rhs)
		if name == "" {
			continue
		}
		var lhsType types.Type
		if lt, ok := pass.Pkg.Info.Types[as.Lhs[i]]; ok {
			lhsType = lt.Type
		} else if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
			// Plain idents on an assignment LHS are not always in
			// Info.Types; fall back to the object. A := definition
			// takes the RHS type and is never an interface widening.
			if obj := pass.Pkg.Info.Uses[id]; obj != nil && as.Tok.String() == "=" {
				lhsType = obj.Type()
			}
		}
		if lhsType == nil {
			continue
		}
		if _, isIface := lhsType.Underlying().(*types.Interface); isIface {
			pass.Reportf(rhs.Pos(), "%s is owned by the %s goroutine; storing it as %s lets arbitrary code retain it", name, owner, lhsType.String())
		}
	}
}
