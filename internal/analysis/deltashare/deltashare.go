// Package deltashare enforces the delta-replay ownership contract of
// submodular.Incremental's CommitDelta/ApplyDelta: the Delta a CommitDelta returns crosses
// goroutines — the coordinator hands it to every worker replica — so it
// must never alias the oracle's own mutable scratch state. The canonical
// bug is storing a receiver scratch field into the delta buffer
// (`d.newly = ic.scratch`): the next probe on the committing oracle then
// rewrites the delta under the replicas applying it, and the corruption
// surfaces as rare worker-count-dependent pick divergence — the same
// class as the Replica aliasing bugs oracleclone guards, one protocol
// step later.
//
// A type is treated as a delta oracle when it declares both CommitDelta
// and ApplyDelta. Inside its CommitDelta body the analyzer flags
// reference-typed receiver fields copied into another value's field or
// into a composite literal:
//
//	d.newly = ic.scratch            // delta aliases live scratch
//	ic.delta = &covDelta{newly: ic.scratch}
//
// Copies routed through a call (d.newly.CopyFrom(ic.scratch),
// append(d.items[:0], ...)) are not flagged: calls are where the deep
// copy happens. A receiver field that is genuinely safe to share into
// deltas (immutable problem data) declares it on the field:
//
//	weights []float64 //powersched:delta-shared immutable problem data
//
// That every replicable oracle has the delta surface at all is no longer
// this analyzer's business: Replica, CommitDelta and ApplyDelta are one
// interface, so the compiler enforces the pairing.
package deltashare

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the deltashare check.
var Analyzer = &analysis.Analyzer{
	Name: "deltashare",
	Doc:  "CommitDelta must not alias oracle scratch into the returned delta",
	Run:  run,
}

// isRefType reports whether copying a value of type t copies a
// reference to shared mutable state rather than the state itself.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func run(pass *analysis.Pass) error {
	// Index method declarations per named receiver type.
	methods := map[*types.TypeName]map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := obj.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			tn := named.Obj()
			if methods[tn] == nil {
				methods[tn] = map[string]*ast.FuncDecl{}
			}
			methods[tn][fn.Name.Name] = fn
		}
	}

	for tn, ms := range methods {
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		strct, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		commit := ms["CommitDelta"]
		if commit == nil || ms["ApplyDelta"] == nil {
			continue // not a delta oracle
		}
		checkCommitDelta(pass, tn, strct, commit, fieldDecls(pass, tn))
	}
	return nil
}

// fieldDecls maps field names of the type's struct declaration to their
// AST nodes, so annotations on the declaration are visible.
func fieldDecls(pass *analysis.Pass, tn *types.TypeName) map[string]*ast.Field {
	out := map[string]*ast.Field{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || pass.TypesInfo.Defs[ts.Name] != tn {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						out[name.Name] = field
					}
				}
			}
		}
	}
	return out
}

// sharedAnnotated reports whether the receiver field's declaration
// carries //powersched:delta-shared <reason> (with a reason).
func sharedAnnotated(fields map[string]*ast.Field, name string) bool {
	field := fields[name]
	if field == nil {
		return false
	}
	if reason, ok := analysis.CommentHasMarker(field.Doc, "delta-shared"); ok && reason != "" {
		return true
	}
	if reason, ok := analysis.CommentHasMarker(field.Comment, "delta-shared"); ok && reason != "" {
		return true
	}
	return false
}

// checkCommitDelta inspects one CommitDelta body for receiver reference
// fields escaping into the delta (or any other value) by plain copy.
func checkCommitDelta(pass *analysis.Pass, tn *types.TypeName, strct *types.Struct,
	fn *ast.FuncDecl, fields map[string]*ast.Field) {

	recvObj := receiverObject(pass, fn)
	if recvObj == nil {
		return
	}
	report := func(pos ast.Node, fieldName string) {
		pass.Reportf(pos.Pos(),
			"%s.CommitDelta() stores reference-typed receiver field %q into the delta: deltas cross goroutines and outlive the call, so they must not alias oracle scratch — deep-copy it, or annotate the field //powersched:delta-shared <reason> if it is immutable",
			tn.Name(), fieldName)
	}
	// recvRefField resolves e as a bare "recv.field" selector naming a
	// reference-typed, unannotated field and returns the field name.
	recvRefField := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[base] != recvObj {
			return "", false
		}
		name := sel.Sel.Name
		ft := fieldType(strct, name)
		if ft == nil || !isRefType(ft) || sharedAnnotated(fields, name) {
			return "", false
		}
		return name, true
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				// Only field writes count: "d.x = recv.f" plants the alias
				// in the escaping delta; a plain local ("d := recv.delta")
				// is the protocol's own buffer-reuse pattern.
				sel, ok := node.Lhs[i].(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if base, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[base] == recvObj {
					continue // writes into the receiver itself are its own state
				}
				if name, ok := recvRefField(node.Rhs[i]); ok {
					report(node.Rhs[i], name)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				value := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					value = kv.Value
				}
				if name, ok := recvRefField(value); ok {
					report(value, name)
				}
			}
		}
		return true
	})
}

// fieldType returns the named field's type, or nil if absent.
func fieldType(strct *types.Struct, name string) types.Type {
	for i := 0; i < strct.NumFields(); i++ {
		if strct.Field(i).Name() == name {
			return strct.Field(i).Type()
		}
	}
	return nil
}

// receiverObject returns the object of the method's receiver identifier.
func receiverObject(pass *analysis.Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}
