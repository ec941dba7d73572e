package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// DepOnly marks packages pulled in only as dependencies of the
	// requested patterns; they are still analyzed (their facts feed the
	// cross-package store) but their diagnostics are dropped.
	DepOnly bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct {
		Err string
	}
}

// goList runs `go list -json -deps` over the patterns in dir (empty =
// current directory) and decodes the JSON stream. -deps guarantees the
// output is in dependency order: every package appears after all of its
// imports, so the loader can type-check in stream order.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load discovers packages matching the go-list patterns (relative to
// dir; "" means the current directory), parses their sources, and
// type-checks them. Standard-library imports are resolved through the
// compiler's export data; module packages are checked from source in
// dependency order. The returned slice contains only module packages,
// dependencies included (marked DepOnly).
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var out []*Package
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", path, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, typeErrs[0])
		}
		checked[lp.ImportPath] = tpkg
		out = append(out, &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
			DepOnly:    lp.DepOnly,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}
	return out, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
