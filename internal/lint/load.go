package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Unit is one parsed, type-checked package ready for Check.
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load loads the module packages matching patterns under dir, using
// the go toolchain to produce compiler export data for every
// dependency (`go list -json -export -deps`) and the standard
// library's gc importer to consume it; it needs no dependencies beyond
// the toolchain itself. Load type-checks each package's GoFiles, which
// never include _test.go files, so the analyzers never see test code.
// That is deliberate: the dynamic suites already execute tests under
// the race detector and with fixed seeds, and test-local shortcuts
// (wall-clock timing in benchmarks, ad-hoc RNGs) are part of their
// job. The static layer polices the production paths.
func Load(dir string, patterns ...string) ([]*Unit, error) {
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	exportFile := make(map[string]string)
	var ordered []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
		ordered = append(ordered, p)
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})

	// Every module package is type-checked from source in ONE shared
	// universe — dependencies first (`go list -deps` emits them in
	// dependency order), with the importer preferring the source-checked
	// package over its export data. This is what makes object identity
	// hold across package boundaries: the module analyzers match
	// *types.Func and *types.Var objects through the call graph, and a
	// package imported as export data would be a parallel universe whose
	// objects never compare equal, silently truncating reachability at
	// every package edge. Only out-of-module dependencies come from
	// export data.
	imp := &moduleImporter{base: gc, src: make(map[string]*types.Package)}
	var units []*Unit
	for _, p := range ordered {
		if p.Standard || p.Module == nil {
			continue
		}
		u, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		imp.src[p.ImportPath] = u.Pkg
		if !p.DepOnly {
			units = append(units, u)
		}
	}
	return units, nil
}

// moduleImporter resolves module-internal imports to their
// source-checked packages and everything else through the gc export
// importer.
type moduleImporter struct {
	base types.Importer
	src  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.src[path]; p != nil {
		return p, nil
	}
	return m.base.Import(path)
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Unit, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Unit{ImportPath: importPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
