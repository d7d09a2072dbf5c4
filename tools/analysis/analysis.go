// Package analysis defines the analyzer protocol of the pnanalyze
// suite: an Analyzer inspects one type-checked package at a time (or,
// through its Module hook, all of them at once) and reports
// Diagnostics at source positions.
//
// The API deliberately mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, one Run call per package) so each
// checker would port to the upstream framework mechanically. The suite
// reimplements that subset on the standard library alone — go/ast,
// go/types and the go command — because both pnsched modules are kept
// dependency-free and the build must stay hermetic: `go vet
// -vettool=pnanalyze` style integration needs nothing outside GOROOT.
//
// Suppression: a diagnostic whose source line carries the comment
//
//	//pnanalyze:ok <analyzer-name>
//
// (or bare `//pnanalyze:ok`, silencing every analyzer on that line) is
// dropped by Filter. Suppressions are for the rare, reviewed exception;
// the comment documents at the violation site that the invariant was
// waived deliberately.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pnsched/tools/analysis/load"
)

// An Analyzer is one named invariant check. Run is invoked once per
// package under analysis with a fully populated Pass; Module, when set,
// once per run with every package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, the -only driver
	// flag, and //pnanalyze:ok suppression comments. Lower-case, no
	// spaces.
	Name string

	// Doc is the one-paragraph description shown by `pnanalyze -list`:
	// first line is the summary, the rest the rationale.
	Doc string

	// NeedsTypes declares whether Run reads Pass.Pkg / Pass.TypesInfo.
	// Purely syntactic analyzers (layering, wirejson) leave it false,
	// letting the driver skip type checking when only they run — the
	// fast path `make apicheck` uses.
	NeedsTypes bool

	// Run performs the check, reporting findings via Pass.Report. A
	// non-nil error aborts the whole run (internal failure, not a
	// finding). It may be nil when Module does all the work.
	Run func(*Pass) error

	// Module, when set, is called once per run, after Run has seen
	// every package, with one Pass per loaded package. It is for
	// invariants no single package can decide (surface: does anything
	// outside its own declaration reference this name?), and reports
	// each finding through the Pass of the package that holds it.
	Module func([]*Pass) error
}

// A Pass carries one package to an Analyzer.Run invocation.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token.Pos values of Files to file positions. It is
	// shared by every package of the run.
	Fset *token.FileSet

	// Files are the package's non-test source files.
	Files []*ast.File

	// Path is the package's import path. Always set, even without
	// types.
	Path string

	// Pkg and TypesInfo hold type information. They are nil when the
	// analyzer declared NeedsTypes=false and the driver ran the
	// parse-only fast path.
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Apply runs a over pkgs — Run on each, then Module once with all of
// them — and returns each package's diagnostics, waived ones dropped.
// The pnanalyze driver and analysistest both run analyzers through it.
func Apply(a *Analyzer, fset *token.FileSet, pkgs []*load.Package) ([][]Diagnostic, error) {
	passes := make([]*Pass, len(pkgs))
	diags := make([][]Diagnostic, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Path:      pkg.Path,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags[i] = append(diags[i], d) },
		}
		if a.Run == nil {
			continue
		}
		if err := a.Run(passes[i]); err != nil {
			return nil, fmt.Errorf("%s: %v", pkg.Path, err)
		}
	}
	if a.Module != nil {
		if err := a.Module(passes); err != nil {
			return nil, err
		}
	}
	for i, pkg := range pkgs {
		diags[i] = Filter(fset, pkg.Files, a.Name, diags[i])
	}
	return diags, nil
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Filter drops diagnostics suppressed by //pnanalyze:ok comments: a
// comment on the same line as the diagnostic naming the analyzer (or
// naming nothing, which waives all analyzers on that line).
func Filter(fset *token.FileSet, files []*ast.File, name string, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	waived := Waived(fset, files, name)
	kept := diags[:0]
	for _, d := range diags {
		if !waived(d.Pos) {
			kept = append(kept, d)
		}
	}
	return kept
}

// Waived returns a predicate reporting whether the line holding pos
// carries a //pnanalyze:ok comment for the named analyzer. Filter
// applies it to finished diagnostics; an analyzer that propagates
// facts between sites (locksend's call-chain taint) uses it so that a
// reviewed operation does not resurface at every caller.
func Waived(fset *token.FileSet, files []*ast.File, name string) func(token.Pos) bool {
	// line key "file:line" → set of analyzer names waived ("" = all).
	waived := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, "//pnanalyze:ok")
				if !found {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if waived[key] == nil {
					waived[key] = make(map[string]bool)
				}
				for _, n := range strings.Fields(rest) {
					waived[key][n] = true
				}
				if strings.TrimSpace(rest) == "" {
					waived[key][""] = true
				}
			}
		}
	}
	return func(p token.Pos) bool {
		pos := fset.Position(p)
		w := waived[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
		return w[""] || w[name]
	}
}
