// Package serialeval fences the reference evaluation: LogLikelihoodSerial
// is the O(n·s) full-tree Felsenstein evaluation the delta engine is
// checked against, and calling it anywhere else silently destroys the
// speedup the delta path exists to provide. The analyzer allows calls
// only from reference-evaluator paths:
//
//   - the felsen package itself (the evaluation's home),
//   - _test.go files and Benchmark/Serial-named functions, and
//   - sites guarded by a serial-mode condition (an enclosing if whose
//     condition mentions a serial flag), which is how the chain engine
//     selects the full evaluation at runtime when it runs over a
//     reference evaluator (felsen.NewReference).
//
// Everything else is a finding: hot code must go through the staged
// delta evaluation (StageDelta / Commit / Discard).
package serialeval

import (
	"go/ast"
	"go/types"
	"strings"

	"mpcgs/internal/analysis"
)

// OracleName is the fenced method.
const OracleName = "LogLikelihoodSerial"

// Analyzer is the reference-evaluation fence.
var Analyzer = &analysis.Analyzer{
	Name: "serialeval",
	Doc: "LogLikelihoodSerial is only callable from reference-evaluator paths, " +
		"benchmarks and tests; everything else must use the delta evaluation",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "felsen") {
		return nil // the oracle's own package uses it freely
	}
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		checkFile(pass, file)
	}
	return nil
}

// checkFile walks one file keeping the enclosing-node stack, so each call
// site can consult its guarding conditions and enclosing function.
func checkFile(pass *analysis.Pass, file *ast.File) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != OracleName {
			return true
		}
		if _, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !ok {
			return true
		}
		if allowed(stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s outside a reference-evaluator path: the full-tree evaluation is O(n·s) per call; use the staged delta evaluation, or guard the call with the chain's serial flag",
			OracleName)
		return true
	})
}

// allowed reports whether the call site (top of stack) sits on a
// reference-evaluator path: a Serial/Benchmark function, or under an if guarded by a
// serial-mode flag.
func allowed(stack []ast.Node) bool {
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.FuncDecl:
			name := n.Name.Name
			if strings.Contains(name, "Serial") || strings.HasPrefix(name, "Benchmark") {
				return true
			}
		case *ast.IfStmt:
			if mentionsSerial(n.Cond) {
				return true
			}
		}
	}
	return false
}

// mentionsSerial reports whether the condition references a serial-mode
// flag: any identifier or field selection whose name contains "serial".
func mentionsSerial(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		var name string
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		case *ast.SelectorExpr:
			name = n.Sel.Name
		default:
			return !found
		}
		if strings.Contains(strings.ToLower(name), "serial") {
			found = true
		}
		return !found
	})
	return found
}
