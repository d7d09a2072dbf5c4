// Command pnanalyze runs the pnsched static-analysis suite — the
// project's machine-checked invariants (layering, determinism, lock
// discipline, logging hygiene, wire-struct tagging, and surface: no
// exported name only tests reach) plus standard-library ports of the
// stock vet extras (nilness, shadow, unusedwrite) — over a Go module
// and prints findings in go vet format:
//
//	file:line:col: analyzer: message
//
// Usage:
//
//	pnanalyze [-dir .] [-only name,name] [-list] [packages]
//
// Packages default to ./... relative to -dir; surface, which asks
// whether anything in the module uses a name, needs the default. The
// exit status is 1 when any diagnostic is reported, 2 on internal
// failure.
//
// When every selected analyzer is purely syntactic (layering,
// wirejson), the driver skips type-checking entirely; `make apicheck`
// relies on this for a sub-second layering gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pnsched/tools/analysis"
	"pnsched/tools/analysis/load"
	"pnsched/tools/analyzers/determinism"
	"pnsched/tools/analyzers/layering"
	"pnsched/tools/analyzers/locksend"
	"pnsched/tools/analyzers/nilness"
	"pnsched/tools/analyzers/shadow"
	"pnsched/tools/analyzers/sloghygiene"
	"pnsched/tools/analyzers/surface"
	"pnsched/tools/analyzers/unusedwrite"
	"pnsched/tools/analyzers/wirejson"
)

// all is the registry, in report order.
var all = []*analysis.Analyzer{
	layering.Analyzer,
	determinism.Analyzer,
	locksend.Analyzer,
	sloghygiene.Analyzer,
	wirejson.Analyzer,
	nilness.Analyzer,
	shadow.Analyzer,
	unusedwrite.Analyzer,
	surface.Analyzer,
}

func main() {
	var (
		dir  = flag.String("dir", ".", "module directory to analyze")
		only = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pnanalyze:", err)
		os.Exit(2)
	}
	needTypes := false
	for _, a := range selected {
		needTypes = needTypes || a.NeedsTypes
	}

	pkgs, fset, err := load.Load(load.Config{
		Dir:      *dir,
		Patterns: flag.Args(),
		Types:    needTypes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pnanalyze:", err)
		os.Exit(2)
	}

	absDir, err := filepath.Abs(*dir)
	if err != nil {
		absDir = *dir
	}

	var findings []string
	for _, a := range selected {
		diags, err := analysis.Apply(a, fset, pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnanalyze: %s: %v\n", a.Name, err)
			os.Exit(2)
		}
		for _, ds := range diags {
			for _, d := range ds {
				pos := fset.Position(d.Pos)
				file := pos.Filename
				if rel, err := filepath.Rel(absDir, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
				findings = append(findings,
					fmt.Sprintf("%s:%d:%d: %s: %s", file, pos.Line, pos.Column, a.Name, d.Message))
			}
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run with -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
