// Package surface keeps the exported surface to what the program uses:
// it reports an exported func, type, var, const, method or field of an
// internal/ package that no non-test file references outside its own
// declaration (a type's own methods are not callers of it), and, in
// any package, a …Config field no non-test file sets and a With…
// option no non-test file calls. Test files are never loaded; cmd/,
// examples/ and bench/ count. A method that satisfies an interface the
// module uses, one fmt, errors or encoding/json calls through any, and
// a json-tagged field need no named reference. The check runs in the
// Module hook over every package (docs/static-analysis.md).
package surface

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"pnsched/tools/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "surface",
	Doc: "flag exported names that only tests reach\n\n" +
		"An exported func, type, var, const, method or field of an internal/\n" +
		"package that no non-test file references, a …Config field no\n" +
		"non-test file sets, and a With… option no non-test file calls.",
	NeedsTypes: true,
	Module:     module,
}

// reflective are the methods fmt, errors and encoding/json call
// through any.
var reflective = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

type index struct {
	used map[types.Object]bool     // referenced outside its own declaration
	set  map[*types.Var]bool       // field a non-test file writes
	ifcs map[*types.Interface]bool // interfaces the module uses
}

func module(passes []*analysis.Pass) error {
	ix := &index{
		used: make(map[types.Object]bool),
		set:  make(map[*types.Var]bool),
		ifcs: make(map[*types.Interface]bool),
	}
	for _, p := range passes {
		ix.references(p)
		ix.writes(p)
		ix.interfaces(p)
	}
	for _, p := range passes {
		ix.check(p)
	}
	return nil
}

// references marks every object an identifier uses outside the
// declaration of that object.
func (ix *index) references(p *analysis.Pass) {
	mark := func(n ast.Node, own map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.TypesInfo.Uses[id] != nil {
				if obj := origin(p.TypesInfo.Uses[id]); !own[obj] {
					ix.used[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				mark(d, owners(p.TypesInfo.Defs[d.Name]))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					own := make(map[types.Object]bool)
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						own[p.TypesInfo.Defs[spec.Name]] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							own[p.TypesInfo.Defs[n]] = true
						}
					}
					mark(spec, own)
				}
			}
		}
	}
}

// owners returns what a func declaration declares: the func and, for a
// method, its receiver's type.
func owners(obj types.Object) map[types.Object]bool {
	own := map[types.Object]bool{obj: true}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Signature().Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			own[named.Obj()] = true
		}
	}
	return own
}

// origin maps a member of an instantiated generic type back to the
// declared one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// writes marks the fields a non-test file sets: a composite literal
// key or position, an assignment or ++/--, or taking the address (a
// flag.IntVar(&cfg.N, …) binding).
func (ix *index) writes(p *analysis.Pass) {
	set := func(id *ast.Ident) {
		if v, ok := p.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() {
			ix.set[v.Origin()] = true
		}
	}
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			set(sel.Sel)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			case *ast.CompositeLit:
				st, ok := p.TypesInfo.TypeOf(n).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set(kv.Key.(*ast.Ident))
					} else {
						ix.set[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
}

// interfaces collects every interface type the package's expressions
// have or name.
func (ix *index) interfaces(p *analysis.Pass) {
	for _, tv := range p.TypesInfo.Types {
		if tv.Type == nil {
			continue
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ix.ifcs[it] = true
		}
	}
}

// satisfies reports whether method m of recv is reflective or part of
// an interface the module uses recv (or *recv) as.
func (ix *index) satisfies(recv *types.Named, m *types.Func) bool {
	if reflective[m.Name()] {
		return true
	}
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for it := range ix.ifcs {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj != nil &&
			(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// check reports the package's findings.
func (ix *index) check(p *analysis.Pass) {
	internal := strings.Contains(p.Path+"/", "/internal/")
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				ix.checkType(p, named, internal)
			}
		}
		_, isFunc := obj.(*types.Func)
		switch {
		case !obj.Exported() || ix.used[obj]:
		case isFunc && strings.HasPrefix(name, "With") && name != "With":
			p.Reportf(obj.Pos(), "option %s: no non-test file calls it", name)
		case internal:
			p.Reportf(obj.Pos(), "%s %s: no non-test file references it", kind(obj), name)
		}
	}
}

func (ix *index) checkType(p *analysis.Pass, named *types.Named, internal bool) {
	tn := named.Obj()
	for i := range named.NumMethods() {
		if m := named.Method(i); internal && m.Exported() && !ix.used[m] && !ix.satisfies(named, m) {
			p.Reportf(m.Pos(), "method %s.%s: no non-test file references it", tn.Name(), m.Name())
		}
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	config := strings.HasSuffix(tn.Name(), "Config")
	for i := range st.NumFields() {
		f := st.Field(i)
		if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); tagged || !f.Exported() || f.Embedded() {
			continue
		}
		switch {
		case config && !ix.set[f]:
			p.Reportf(f.Pos(), "field %s.%s: no non-test file sets it", tn.Name(), f.Name())
		case internal && !ix.used[f]:
			p.Reportf(f.Pos(), "field %s.%s: no non-test file references it", tn.Name(), f.Name())
		}
	}
}

func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
