// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest:
// a line expecting a diagnostic carries a comment
//
//	// want "regexp"
//
// (several quoted regexps if the line expects several diagnostics; Go
// double-quoted or backquoted string syntax). A fixture line with a
// //pnanalyze:ok suppression and no want comment doubles as the proof
// that suppression works.
//
// Fixture packages live under <testdata>/src/<import-path>/ and may
// import one another and the standard library.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pnsched/tools/analysis"
	"pnsched/tools/analysis/load"
)

// Run loads each fixture package and applies a to it (a.Module to all
// of them at once), comparing reported diagnostics against the
// fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	pkgs, fset, err := load.Fixture(testdata, paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Apply(a, fset, pkgs)
	if err != nil {
		t.Fatalf("analyzer %s failed: %v", a.Name, err)
	}
	for i, pkg := range pkgs {
		check(t, fset, pkg, diags[i])
	}
}

// expectation is one unconsumed want regexp at a file line.
type expectation struct {
	re  *regexp.Regexp
	raw string
}

func check(t *testing.T, fset *token.FileSet, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	want := make(map[string][]*expectation) // "file:line" → expectations
	for _, f := range pkg.Files {
		collectWants(t, fset, f, want)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for i, exp := range want[key] {
			if exp != nil && exp.re.MatchString(d.Message) {
				want[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for key, exps := range want {
		for _, exp := range exps {
			if exp != nil {
				t.Errorf("%s: no diagnostic matching %q", key, exp.raw)
			}
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, want map[string][]*expectation) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			for _, raw := range splitQuoted(text) {
				pat, err := strconv.Unquote(raw)
				if err != nil {
					t.Fatalf("%s: malformed want string %s: %v", pos, raw, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: malformed want regexp %q: %v", pos, pat, err)
				}
				want[key] = append(want[key], &expectation{re: re, raw: pat})
			}
		}
	}
}

// splitQuoted splits a space-separated sequence of double- or
// back-quoted tokens, returning each with its quotes included.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
			}
			i = j
		case '`':
			j := i + 1
			for j < len(s) && s[j] != '`' {
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
			}
			i = j
		}
	}
	return out
}
