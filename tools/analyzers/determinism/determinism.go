// Package determinism guards the paper's headline reproducibility
// guarantee: schedules are byte-identical per (seed, island count).
// In the GA hot path — internal/core, internal/ga, internal/island,
// internal/sim and internal/scenario — and in the live pool's core file,
// internal/dist/core.go, it flags the three classic ways
// nondeterminism slips into a Go codebase:
//
//   - time.Now / time.Since / time.Until: wall-clock reads must come
//     through an injected clock (or stay in the runtime layers, which
//     are outside the deterministic core);
//   - package-level math/rand and math/rand/v2 functions: they draw
//     from the shared process-wide source, bypassing the seeded
//     *rand.Rand every deterministic component receives;
//   - ranging over a map where the body observably depends on order
//     (appending to an outer slice, sending on a channel, or writing
//     output): Go randomizes map iteration, so such loops must walk a
//     sorted key slice instead. Order-insensitive map loops (counting,
//     summing, set building) are fine and not flagged.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"pnsched/tools/analysis"
)

// Scopes lists the module-relative package paths (and subtrees) the
// analyzer applies to: the deterministic core. An entry ending in .go
// names one file of a package. Runtime layers (dist, telemetry,
// experiments, linpack) legitimately read wall clocks; the pool core
// inside dist is the file that takes its time as a value.
var Scopes = []string{
	"pnsched/internal/core",
	"pnsched/internal/ga",
	"pnsched/internal/island",
	"pnsched/internal/sim",
	"pnsched/internal/scenario",
	"pnsched/internal/dist/core.go",
}

// randConstructors are the package-level math/rand functions that do
// NOT touch the global source: they build new, explicitly seeded
// generators, which is exactly the seam the ban funnels code toward.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid nondeterminism sources in the deterministic GA core\n\n" +
		"In internal/{core,ga,island,sim,scenario} and internal/dist/core.go:\n" +
		"no time.Now/Since/Until,\n" +
		"no package-level math/rand draws (use the injected *rand.Rand), and\n" +
		"no ranging over maps to produce ordered output.",
	NeedsTypes: true,
	Run:        run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if !inScope(pass.Path, filepath.Base(pass.Fset.File(f.Pos()).Name())) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
		// Map-range order sensitivity is judged per function so an
		// append-collect loop can be excused by a later sort.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncMapRanges(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				checkFuncMapRanges(pass, n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// checkFuncMapRanges inspects one function body: immediate-report
// violations (sends, writes) fire directly; append-to-outer-slice
// candidates are held back and excused when the slice is sorted after
// the loop — collecting keys, sorting, then iterating IS the
// sanctioned deterministic idiom.
func checkFuncMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	type candidate struct {
		rng   *ast.RangeStmt
		slice types.Object
	}
	var candidates []candidate
	var sorted []struct {
		obj types.Object
		pos token.Pos
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncMapRanges(pass, n.Body) // its own sort horizon
			return false
		case *ast.CallExpr:
			if obj := sortedArg(pass, n); obj != nil {
				sorted = append(sorted, struct {
					obj types.Object
					pos token.Pos
				}{obj, n.Pos()})
			}
		case *ast.RangeStmt:
			slice := checkMapRange(pass, n)
			if slice != nil {
				candidates = append(candidates, candidate{n, slice})
			}
		}
		return true
	})
	for _, c := range candidates {
		excused := false
		for _, s := range sorted {
			if s.obj == c.slice && s.pos > c.rng.End() {
				excused = true
				break
			}
		}
		if !excused {
			pass.Reportf(c.rng.Pos(),
				"range over map %s in deterministic package: the body appends to %s "+
					"which is never sorted afterwards, so its order follows Go's randomized "+
					"map iteration; sort it before use",
				exprString(c.rng.X), c.slice.Name())
		}
	}
}

// sortedArg recognizes sort.* / slices.Sort* calls and returns the
// object of their slice argument.
func sortedArg(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		if !strings.HasPrefix(fn.Name(), "Sort") {
			switch fn.Name() {
			case "Strings", "Ints", "Float64s", "Stable", "Slice", "SliceStable":
			default:
				return nil
			}
		}
	default:
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		return pass.TypesInfo.ObjectOf(id)
	}
	return nil
}

// inScope reports whether the file named file of package path is
// covered by Scopes.
func inScope(path, file string) bool {
	for _, s := range Scopes {
		if path == s || strings.HasPrefix(path, s+"/") || path+"/"+file == s {
			return true
		}
	}
	return false
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are the sanctioned seam
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"call to time.%s in deterministic package %s: wall-clock reads break "+
					"(seed, islands)-reproducibility; use the injected clock seam or move "+
					"the read into a runtime layer", fn.Name(), pass.Path)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to package-level %s.%s draws from the process-global source: "+
					"deterministic components must use their injected *rand.Rand",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// calleeFunc resolves the static callee of a call, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkMapRange inspects one range statement. Sends and output writes
// inside a map range are reported immediately; an append to a slice
// declared outside the loop is returned as a candidate (the caller
// excuses it when the slice is sorted later).
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) types.Object {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	var reason string
	var appendTarget types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.AssignStmt:
			if obj := appendsToOuter(pass, n, rng); obj != nil {
				appendTarget = obj
			}
		case *ast.CallExpr:
			if name := writeCall(pass, n); name != "" {
				reason = "writes output via " + name
				return false
			}
		}
		return true
	})
	if reason != "" {
		pass.Reportf(rng.Pos(),
			"range over map %s in deterministic package: the body %s, so its result "+
				"depends on Go's randomized map order; iterate a sorted key slice instead",
			exprString(rng.X), reason)
		return nil
	}
	return appendTarget
}

// appendsToOuter reports the target object when assign is
// `x = append(x, ...)` with x declared outside the range statement.
func appendsToOuter(pass *analysis.Pass, assign *ast.AssignStmt, rng *ast.RangeStmt) types.Object {
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" ||
			pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		if i >= len(assign.Lhs) {
			continue
		}
		id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		// Declared outside the loop: its declaration precedes the range
		// statement.
		if obj.Pos() < rng.Pos() {
			return obj
		}
	}
	return nil
}

// writeCall reports formatted-output calls: the fmt print family and
// Write/WriteString/WriteByte/WriteRune methods (string builders, io
// writers).
func writeCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
		return "fmt." + fn.Name()
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		return "fmt." + fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "(" + sig.Recv().Type().String() + ")." + fn.Name()
		}
	}
	return ""
}

func exprString(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			return x.Name + "." + sel.Sel.Name
		}
	}
	return "value"
}
