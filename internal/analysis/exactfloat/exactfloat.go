// Package exactfloat guards the checkpoint wire format's bit-exactness.
// Kill/resume equivalence holds only if every float crosses the wire with
// all 64 bits intact, which the ckpt package guarantees by funnelling
// scalars through the hex-float codec (strconv.FormatFloat with the 'x'
// verb) and leaving bulk draws to the trace sidecar's bit-pattern frames.
// In the ckpt package the analyzer therefore flags
//
//   - raw float fields (including slices, arrays, maps and pointers of
//     floats) in marshaled structs — any struct with json tags — which
//     would round-trip through decimal text,
//   - floats passed to fmt formatting functions (%v, %f and %g all render
//     shortest-decimal or fixed forms), and
//   - strconv.FormatFloat / AppendFloat with any verb other than the
//     exact 'x' and 'b'.
//
// Wire structs carry floats as hex-float strings; the codec helpers are
// the only door.
//
// The trace sidecar (internal/trace) is the second wire layer with the
// same contract: draws cross as raw IEEE-754 bit patterns
// (math.Float64bits through the binary frame codec), and a checkpoint
// references the sidecar through hex-float fields (ckpt.TraceRef). The
// analyzer applies the identical rules there — a float that reached fmt
// or a decimal strconv verb in the sidecar package would corrupt the
// stream exactly as it would a checkpoint.
package exactfloat

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"

	"mpcgs/internal/analysis"
)

// TargetSuffixes select the wire-format packages (suffix-matched so
// fixture packages can stand in for the real ones): the checkpoint
// codec and the trace sidecar.
var TargetSuffixes = []string{"internal/ckpt", "internal/trace"}

// Analyzer is the checkpoint float-exactness checker.
var Analyzer = &analysis.Analyzer{
	Name: "exactfloat",
	Doc: "floats cross the checkpoint wire only via the hex-float or " +
		"bit-pattern codecs; decimal formatting and raw float fields lose bits",
	Run: run,
}

func run(pass *analysis.Pass) error {
	target := false
	for _, suffix := range TargetSuffixes {
		if strings.HasSuffix(pass.Pkg.Path(), suffix) {
			target = true
			break
		}
	}
	if !target {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				checkWireStruct(pass, n)
			case *ast.CallExpr:
				checkFmtCall(pass, n)
				checkFormatFloat(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkWireStruct flags float-bearing fields in marshaled structs. A
// struct is "marshaled" if any field carries a json tag; within one,
// every exported field is on the wire unless tagged json:"-".
func checkWireStruct(pass *analysis.Pass, spec *ast.TypeSpec) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	if !hasJSONTag(st) {
		return
	}
	for _, field := range st.Fields.List {
		if jsonTag(field) == "-" {
			continue
		}
		exported := len(field.Names) == 0 // embedded: conservatively check
		for _, name := range field.Names {
			if name.IsExported() {
				exported = true
			}
		}
		if !exported {
			continue
		}
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil || !containsFloat(t, map[types.Type]bool{}) {
			continue
		}
		pass.Reportf(field.Pos(),
			"raw float field in marshaled struct %s round-trips through decimal text: encode it as a hex-float string (hexFloat) or IEEE-754 bit patterns (math.Float64bits)",
			spec.Name.Name)
	}
}

func hasJSONTag(st *ast.StructType) bool {
	for _, field := range st.Fields.List {
		if jsonTag(field) != "" {
			return true
		}
	}
	return false
}

func jsonTag(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return ""
	}
	tag := reflect.StructTag(raw).Get("json")
	name, _, _ := strings.Cut(tag, ",")
	return name
}

// containsFloat reports whether a value of type t carries floating-point
// components that encoding/json would render as decimal text.
func containsFloat(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Slice:
		return containsFloat(u.Elem(), seen)
	case *types.Array:
		return containsFloat(u.Elem(), seen)
	case *types.Pointer:
		return containsFloat(u.Elem(), seen)
	case *types.Map:
		return containsFloat(u.Key(), seen) || containsFloat(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() && containsFloat(f.Type(), seen) {
				return true
			}
		}
	}
	return false
}

// checkFmtCall flags float-typed arguments reaching fmt's formatters:
// every fmt verb renders floats in decimal.
func checkFmtCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	for _, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
			pass.Reportf(arg.Pos(),
				"float formatted through fmt.%s renders in decimal and loses bits on the wire: use hexFloat for scalars or math.Float64bits for bulk draws",
				fn.Name())
		}
	}
}

// checkFormatFloat flags strconv float formatting with lossy verbs; only
// 'x' (hex) and 'b' (binary exponent) round-trip every bit by
// construction.
func checkFormatFloat(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strconv" {
		return
	}
	var fmtArg ast.Expr
	switch fn.Name() {
	case "FormatFloat":
		if len(call.Args) == 4 {
			fmtArg = call.Args[1]
		}
	case "AppendFloat":
		if len(call.Args) == 5 {
			fmtArg = call.Args[2]
		}
	default:
		return
	}
	if fmtArg == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[fmtArg]
	if !ok || tv.Value == nil {
		return // verb not a constant: nothing to decide statically
	}
	verb := constant_byte(tv.Value.ExactString())
	if verb == 'x' || verb == 'X' || verb == 'b' || verb == 0 {
		return
	}
	pass.Reportf(fmtArg.Pos(),
		"strconv.%s with verb %q renders in decimal: checkpoint floats must use the 'x' hex-float verb (hexFloat)",
		fn.Name(), verb)
}

// constant_byte extracts the rune of a constant's exact string (e.g. "120"
// for 'x'); returns 0 if it does not parse.
func constant_byte(s string) byte {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 255 {
		return 0
	}
	return byte(n)
}
