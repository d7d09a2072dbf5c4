// Package wirejson keeps the wire format explicit. For any struct
// that participates in JSON encoding — detected by carrying at least
// one `json:"..."` field tag — every exported field must also carry
// an explicit json tag, and json tags on unexported fields (which
// encoding/json silently ignores) are flagged as dead.
//
// The rule exists for internal/dist/protocol.go: a field added to a
// wire message without a tag still encodes, but under its Go name,
// which silently widens the protocol outside the documented grammar
// (docs/wire-protocol.md) and outside docscheck's drift gate. Making
// the tag mandatory turns that drift into a CI failure. The same
// discipline automatically covers the payload types that go on the
// wire as themselves (the internal/observe event structs,
// dist.Snapshot, dist.Trace) and the scenario-file and Spec structs,
// which are serialized contracts too.
package wirejson

import (
	"go/ast"
	"reflect"
	"strconv"

	"pnsched/tools/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wirejson",
	Doc: "require explicit json tags on every exported field of JSON structs\n\n" +
		"A struct with any json-tagged field is a serialization contract:\n" +
		"untagged exported fields drift onto the wire under their Go names,\n" +
		"and tags on unexported fields are silently dead.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			checkStruct(pass, ts.Name.Name, st)
			return true
		})
	}
	return nil
}

func checkStruct(pass *analysis.Pass, name string, st *ast.StructType) {
	if st.Fields == nil {
		return
	}
	tagged := false
	for _, field := range st.Fields.List {
		if _, ok := jsonTag(field); ok {
			tagged = true
			break
		}
	}
	if !tagged {
		return // not a serialization struct
	}
	for _, field := range st.Fields.List {
		tag, hasTag := jsonTag(field)
		names := field.Names
		if len(names) == 0 {
			// Embedded field: its exported name participates in encoding.
			if id := embeddedName(field.Type); id != nil && ast.IsExported(id.Name) && !hasTag {
				pass.Reportf(field.Pos(),
					"embedded field %s of wire struct %s lacks an explicit json tag: "+
						"its fields reach the wire outside the documented grammar", id.Name, name)
			}
			continue
		}
		for _, id := range names {
			switch {
			case ast.IsExported(id.Name) && !hasTag:
				pass.Reportf(id.Pos(),
					"exported field %s of wire struct %s lacks an explicit json tag: "+
						"it would encode under its Go name, widening the protocol silently "+
						"(document it in docs/wire-protocol.md and tag it)", id.Name, name)
			case !ast.IsExported(id.Name) && hasTag && tag != "-":
				pass.Reportf(id.Pos(),
					"json tag %q on unexported field %s of wire struct %s is dead: "+
						"encoding/json ignores unexported fields", tag, id.Name, name)
			}
		}
	}
}

// jsonTag extracts the json struct tag, reporting whether one exists.
func jsonTag(field *ast.Field) (string, bool) {
	if field.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return "", false
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	return tag, ok
}

func embeddedName(e ast.Expr) *ast.Ident {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		if id, ok := ast.Unparen(t.X).(*ast.Ident); ok {
			return id
		}
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}
