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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Pkg is one parsed and type-checked package.
type Pkg struct {
	Path  string // import path, e.g. "toc/internal/storage"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage mirrors the go list -json fields the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// goList shells out to the go tool — the only way to resolve import
// paths and obtain compiled export data without golang.org/x/tools,
// which this repo deliberately does not depend on. -export makes the
// build cache produce an export-data file per package; type-checking
// against those is how the analyzers see across package boundaries.
func goList(workDir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly",
	}, args...)...)
	cmd.Dir = workDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decode: %v", args, err)
		}
		pkgs = append(pkgs, &p)
	}
}

// Load lists the packages matching the patterns (relative to workDir, "" =
// current directory), type-checks each against the export data of its
// dependencies, and returns them sorted by import path. The tree must
// compile; a package whose dependencies failed to build is a load error,
// not a finding.
func Load(workDir string, patterns ...string) ([]*Pkg, error) {
	listed, err := goList(workDir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	pkgs := make([]*Pkg, 0, len(targets))
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, name := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, name)
		}
		pkg, err := typeCheck(t.ImportPath, files, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses the files with comments and type-checks them, pulling
// imports from the export-data map.
func typeCheck(pkgPath string, files []string, exports map[string]string) (*Pkg, error) {
	fset := token.NewFileSet()
	syntax := make([]*ast.File, 0, len(files))
	for _, f := range files {
		parsed, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, parsed)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (does the tree build?)", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", pkgPath, err)
	}
	return &Pkg{Path: pkgPath, Fset: fset, Files: syntax, Types: tpkg, Info: info}, nil
}
