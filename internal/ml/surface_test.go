package ml

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// One model contract, one GLM, one step path: the package's non-test
// source declares a single struct with a weight vector and a bias (Linear
// — a second one is a forked GLM), no method named Step (a step is
// Train's Grad+ApplyGrad, for every model) and no type assertion from one
// model interface to another (Model is the whole contract; its other
// names are aliases). Nor does it assert a batch to any formats type: a
// batch's NewKernelPlan is the one way to multiply it, whatever its
// scheme.
func TestModelSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["ml"]
	if pkg == nil {
		t.Fatal("package ml not found")
	}

	hasField := func(st *ast.StructType, name, typ string) bool {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.Name == name && types.ExprString(f.Type) == typ {
					return true
				}
			}
		}
		return false
	}
	declaresGrad := func(it *ast.InterfaceType) bool {
		for _, m := range it.Methods.List {
			for _, id := range m.Names {
				if id.Name == "Grad" {
					return true
				}
			}
		}
		return false
	}

	var glms []string
	modelIfaces := map[string]bool{}
	aliases := map[string]string{}
	ast.Inspect(pkg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			switch typ := n.Type.(type) {
			case *ast.StructType:
				if hasField(typ, "W", "[]float64") && hasField(typ, "B", "float64") {
					glms = append(glms, n.Name.Name)
				}
			case *ast.InterfaceType:
				if declaresGrad(typ) {
					modelIfaces[n.Name.Name] = true
				}
			case *ast.Ident:
				if n.Assign.IsValid() {
					aliases[n.Name.Name] = typ.Name
				}
			}
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.Name == "Step" {
				t.Errorf("%s: method Step on %s — a step is Train's Grad+ApplyGrad",
					fset.Position(n.Pos()), types.ExprString(n.Recv.List[0].Type))
			}
		}
		return true
	})
	sort.Strings(glms)
	if len(glms) != 1 || glms[0] != "Linear" {
		t.Errorf("structs with a []float64 W and a float64 B: %v, want [Linear]", glms)
	}
	if !modelIfaces["Model"] {
		t.Error("Model no longer declares Grad: this test needs a new anchor")
	}
	for alias, target := range aliases {
		if modelIfaces[target] {
			modelIfaces[alias] = true
		}
	}
	ast.Inspect(pkg, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil { // nil in a type switch's guard
				targets = append(targets, n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range n.Body.List {
				targets = append(targets, cc.(*ast.CaseClause).List...)
			}
		}
		for _, e := range targets {
			switch target := types.ExprString(e); {
			case modelIfaces[target]:
				t.Errorf("%s: assertion to model interface %s — Model is the whole contract",
					fset.Position(e.Pos()), target)
			case strings.HasPrefix(target, "formats.") || strings.HasPrefix(target, "*formats."):
				t.Errorf("%s: assertion to %s — multiply a batch through its NewKernelPlan",
					fset.Position(e.Pos()), target)
			}
		}
		return true
	})
}
