package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// keep lists the exported functions and methods in internal/ that no
// non-test Go file calls outside the file that declares them, each with
// the reason it stays in the library. A test-only hook goes instead: it
// is deleted, folded into its one caller, or moved into its package's
// export_test.go. Names the benchmark/ module calls need no entry: its
// calls count.
var keep = map[string]string{
	// The paper's oracles and its one-shot Table 1 operations.
	"toc/internal/core.PrefixTreeEncode":  "oracle: Algorithm 1 as the paper states it, which core's encoder is checked against",
	"toc/internal/core.SparseEncode":      "oracle: §3's sparse encoded table B, the input PrefixTreeEncode takes",
	"(*toc/internal/core.DecodeTree).Seq": "oracle: a tree node's pair sequence, Algorithm 2's decode written out",
	"(*toc/internal/core.Batch).Square":   "Table 1: element-wise A.^2 on the compressed batch",
	"(*toc/internal/core.Batch).AddDense": "Table 1: the sparse-unsafe A+M, by full decoding",
	"(*toc/internal/core.Batch).MulMat":   "Table 1: one-shot A·M, Algorithm 7",
	"(*toc/internal/core.Batch).MatMul":   "Table 1: one-shot M·A, Algorithm 8",
	"(*toc/internal/core.Batch).Variant":  "Table 1's layer ablation: which encoding layers a batch was built with",

	// Dense reference kernels that other packages' differential tests
	// compare the compressed kernels against.
	"(*toc/internal/matrix.Dense).VecMul": "dense reference: v·A, the oracle of the core, cla and formats kernel tests",
	"(*toc/internal/matrix.Dense).MatMul": "dense reference: M·A, the oracle of the core, cla and formats kernel tests",

	// Helpers that tests in several packages share.
	"toc/internal/faultpoint.Reset":                    "shared test helper: dist, engine, storage and faultpoint tests disarm through it",
	"toc/internal/faultpoint.HitCount":                 "shared test helper: storage and faultpoint tests count a site's hits",
	"toc/internal/faultpoint.ArmError":                 "shared test helper: dist, engine, storage and faultpoint tests inject a one-shot error",
	"toc/internal/faultpoint.ArmErrorEvery":            "shared test helper: engine, storage and faultpoint tests inject seeded errors",
	"(*toc/internal/checkpoint.Writer).SetSynchronous": "shared test helper: checkpoint and engine tests make saves deterministic",
	"toc/internal/checkpoint.Load":                     "shared test helper: engine's resume tests load every checkpoint a run wrote, not only the latest",
	"(*toc/internal/storage.Store).ShardBytes":         "shared test helper: engine and storage tests check the shard split",
	"(*toc/internal/matrix.Dense).EqualApprox":         "shared test helper: dense comparisons in cla, core, formats and matrix tests",
	"(*toc/internal/matrix.Dense).SliceRows":           "shared test helper: formats and matrix tests copy rows out of a dataset view",
	"toc/internal/ml.NewLogReg":                        "shared test helper: the binary logistic model of ml and storage tests",
	"toc/internal/formats.MustGetCodec":                "shared test helper: engine and formats tests look up a registered method",
	"toc/internal/data.DefaultCols":                    "shared test helper: core and data tests size a dataset's columns",
	"toc/internal/bitpack.PackVarint":                  "shared test helper: the varint ablation of the root benchmarks and bitpack tests",
	"toc/internal/testutil.CheckGoroutineLeak":         "shared test helper: engine and storage tests check for leaked goroutines",
}

// TestEveryExportedNameHasACaller is the census of internal/'s exported
// API: every exported function or method must be called from non-test Go
// outside the file that declares it — in this module or in the
// benchmark/ module — or be listed in keep with its reason. A method
// whose name belongs to an interface is exempt: its caller is the
// interface.
func TestEveryExportedNameHasACaller(t *testing.T) {
	mod, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load("../../benchmark", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(mod, bench...)

	ifaceMethods := map[string]bool{"Error": true, "String": true, "Unwrap": true}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			addInterfaceMethods(ifaceMethods, tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				addInterfaceMethods(ifaceMethods, obj.Type())
			}
		}
	}

	// declFile maps each exported function or method of internal/ to the
	// file that declares it; called marks those some other file uses.
	declFile := map[string]string{}
	for _, pkg := range mod {
		if !strings.HasPrefix(pkg.Path, "toc/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fd.Recv != nil && ifaceMethods[fd.Name.Name] {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				declFile[fn.FullName()] = pkg.Fset.Position(fd.Pos()).Filename
			}
		}
	}
	called := map[string]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			name := fn.Origin().FullName()
			if file, ok := declFile[name]; ok && file != pkg.Fset.Position(id.Pos()).Filename {
				called[name] = true
			}
		}
	}

	var uncalled []string
	for name, file := range declFile {
		_, kept := keep[name]
		switch {
		case !called[name] && !kept:
			uncalled = append(uncalled, name+" ("+file+")")
		case called[name] && kept:
			t.Errorf("%s is kept as uncalled, but non-test code calls it: drop it from keep", name)
		}
	}
	for name := range keep {
		if _, ok := declFile[name]; !ok {
			t.Errorf("%s is kept, but internal/ declares no such exported name: drop it from keep", name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s has no non-test caller outside its file: delete it, fold it into its caller, move it into export_test.go, or keep it with a reason", name)
	}
}

// addInterfaceMethods records the method names of t if it is an
// interface.
func addInterfaceMethods(names map[string]bool, t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		names[it.Method(i).Name()] = true
	}
}
