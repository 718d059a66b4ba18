// Package analysis is the repo's static-analysis framework: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis that the
// mpcgsvet analyzers run on.
//
// The engine's headline guarantees — bit-identical kill/resume,
// allocation-free delta-evaluated hot paths, and the reference-evaluator
// oracle — are behavioural invariants that example-based tests can only
// spot-check. The analyzers in the subpackages enforce them mechanically
// over the whole tree:
//
//   - determinism: no global math/rand, no time-derived seeds, no
//     map-iteration-order-dependent output in the engine packages
//   - hotpath: functions annotated //mpcgs:hotpath contain no allocating
//     constructs, following same-module callees one level deep
//   - serialeval: felsen.LogLikelihoodSerial is only reachable from
//     reference-mode oracle paths, benchmarks and tests
//   - exactfloat: floats cross the checkpoint wire only through the
//     hex-float / base64 codec helpers
//
// The framework deliberately mirrors the x/tools API shape (Analyzer,
// Pass, Diagnostic) so the analyzers could be ported to a real
// multichecker if the dependency ever becomes available; it is built on
// the standard library alone because this module vendors nothing.
//
// # Annotations
//
// Two comment directives steer the analyzers:
//
//	//mpcgs:hotpath
//	    on a function's doc comment: the function is an allocation-free
//	    hot path and the hotpath analyzer must check it.
//
//	//mpcgsvet:ignore-maporder <reason>
//	//mpcgsvet:ignore-alloc <reason>
//	    on (or on the line above) a flagged construct: suppress that
//	    finding. The reason is mandatory — an annotation without one is
//	    itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "determinism".
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports the analyzer's findings for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package plus the cross-package lookups an
// analyzer may need.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// FuncSource resolves a function object to its parsed source, for any
	// function whose package was source-loaded in this analysis universe
	// (i.e. the module under analysis, as opposed to the standard
	// library). It returns nil for functions without available bodies.
	// The hotpath analyzer uses it to follow same-module callees one
	// level deep.
	FuncSource func(*types.Func) *FuncSource

	report func(Diagnostic)
}

// FuncSource is the parsed source of one module function: its
// declaration, the type info of its package, and its enclosing file (for
// directive lookups).
type FuncSource struct {
	Decl *ast.FuncDecl
	Info *types.Info
	File *ast.File
}

// Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// --- directives -------------------------------------------------------------

// Directive is one //mpcgs:... or //mpcgsvet:... comment: its name (e.g.
// "mpcgsvet:ignore-maporder"), its argument (the rest of the line, the
// mandatory reason for ignore directives), and where it appeared.
type Directive struct {
	Name string
	Arg  string
	Pos  token.Pos
}

// HotpathDirective is the annotation marking a function as an
// allocation-free hot path.
const HotpathDirective = "mpcgs:hotpath"

// parseDirective splits a comment into a directive, if it is one.
// Directives are machine comments: no space after //, like //go:build.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return Directive{}, false
	}
	if !strings.HasPrefix(text, "mpcgs:") && !strings.HasPrefix(text, "mpcgsvet:") {
		return Directive{}, false
	}
	name, arg, _ := strings.Cut(text, " ")
	return Directive{Name: name, Arg: strings.TrimSpace(arg), Pos: c.Pos()}, true
}

// Directives indexes every mpcgs/mpcgsvet directive of a file by line.
type Directives map[int][]Directive

// FileDirectives scans a file's comments for directives.
func FileDirectives(fset *token.FileSet, f *ast.File) Directives {
	out := Directives{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				line := fset.Position(c.Pos()).Line
				out[line] = append(out[line], d)
			}
		}
	}
	return out
}

// At returns the named directive attached to pos: on pos's own line or on
// the line directly above it (the two conventional annotation placements).
func (ds Directives) At(fset *token.FileSet, pos token.Pos, name string) (Directive, bool) {
	line := fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range ds[l] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// HasHotpathDoc reports whether a function declaration's doc comment
// carries the //mpcgs:hotpath annotation.
func HasHotpathDoc(decl *ast.FuncDecl) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if d, ok := parseDirective(c); ok && d.Name == HotpathDirective {
			return true
		}
	}
	return false
}

// --- running ----------------------------------------------------------------

// Run applies the analyzers to every root package of the program and
// returns the combined findings sorted by position.
func (prog *Program) Run(analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range prog.Roots {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       prog.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				FuncSource: prog.FuncSource,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
