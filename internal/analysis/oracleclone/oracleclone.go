// Package oracleclone enforces the oracle-replica contract: a concrete
// incremental oracle's Replica() must give the replica its own copy of
// every mutable slice/map/pointer field, sharing only what the field
// declares shareable — immutable problem data, or the committed state of
// a copy-on-write lineage, which replicas only read between commits and
// keep in step through ApplyDelta. A shallow-copied scratch field aliases
// the original's mutable state across replicas, and because replicas
// probe concurrently, the corruption surfaces as rare,
// worker-count-dependent divergence: the PR 4 blocked-list corruption
// and the PR 5 Composite aliasing both came from exactly this bug class.
//
// A type is treated as an incremental oracle when it declares Gain,
// Commit, and Replica methods (the shape of submodular.Incremental,
// matched structurally so the check also covers future oracle
// interfaces with side constraints). Inside its Replica body the
// analyzer flags reference-typed fields (slice, map, pointer, chan,
// interface) copied directly off the receiver:
//
//	&T{spans: o.spans}   // composite literal, keyed or positional
//	c.spans = o.spans    // field-to-field assignment
//	c := *o              // whole-struct copy (minus fields reassigned later)
//
// Copies routed through a call (o.spans.Clone(), append(nil, ...),
// make+copy) are not flagged. A field that is genuinely safe to share
// declares it where reviewers look, on the field itself:
//
//	weights []float64 //powersched:clone-shared immutable problem data
//	st      *state    //powersched:clone-shared copy-on-write committed state, synced by ApplyDelta
package oracleclone

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the oracleclone check.
var Analyzer = &analysis.Analyzer{
	Name: "oracleclone",
	Doc:  "incremental-oracle Replica() must deep-copy mutable reference fields",
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

// oracle gathers what the analyzer needs about one incremental-oracle
// type: its struct shape, its Replica body, and the field declarations
// (for annotations).
type oracle struct {
	named   *types.Named
	strct   *types.Struct
	replica *ast.FuncDecl
	file    *ast.File
	fields  map[string]*ast.Field
}

func run(pass *analysis.Pass) error {
	// Index method declarations per named receiver type.
	methods := map[*types.TypeName]map[string]*ast.FuncDecl{}
	methodFile := map[*ast.FuncDecl]*ast.File{}
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
			methodFile[fn] = f
		}
	}

	for tn, ms := range methods {
		replica := ms["Replica"]
		if replica == nil || ms["Gain"] == nil || ms["Commit"] == nil {
			continue // not an incremental oracle
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		strct, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		o := &oracle{
			named:   named,
			strct:   strct,
			replica: replica,
			file:    methodFile[replica],
			fields:  fieldDecls(pass, tn),
		}
		checkReplica(pass, o)
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

// sharedAnnotated reports whether the field declaration carries the
// //powersched:clone-shared <reason> annotation (with a reason).
func (o *oracle) sharedAnnotated(name string) bool {
	field := o.fields[name]
	if field == nil {
		return false
	}
	if reason, ok := analysis.CommentHasMarker(field.Doc, "clone-shared"); ok && reason != "" {
		return true
	}
	if reason, ok := analysis.CommentHasMarker(field.Comment, "clone-shared"); ok && reason != "" {
		return true
	}
	return false
}

// checkReplica inspects one Replica body for shallow reference copies.
func checkReplica(pass *analysis.Pass, o *oracle) {
	recvObj := receiverObject(pass, o.replica)
	if recvObj == nil {
		return // unnamed receiver: the body cannot read receiver fields
	}

	// Fields of the replica overwritten anywhere in the body ("c := *o"
	// followed by "c.scratch = make(...)"), keyed by target object.
	overwritten := map[types.Object]map[string]bool{}
	ast.Inspect(o.replica.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[base]
			if obj == nil || obj == recvObj {
				continue
			}
			if overwritten[obj] == nil {
				overwritten[obj] = map[string]bool{}
			}
			overwritten[obj][sel.Sel.Name] = true
		}
		return true
	})

	report := func(pos ast.Node, fieldName string) {
		ft := fieldType(o.strct, fieldName)
		pass.Reportf(pos.Pos(),
			"%s.Replica() shallow-copies reference-typed field %q (%s): replicas alias mutable state (the PR 4 blocked-list / PR 5 Composite bug class) — deep-copy it, or annotate the field //powersched:clone-shared <reason> if sharing is sound",
			o.named.Obj().Name(), fieldName, ft)
	}

	ast.Inspect(o.replica.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[node]
			if !ok || !types.Identical(tv.Type, o.named) {
				return true
			}
			for i, elt := range node.Elts {
				fieldName, value := litEntry(o.strct, i, elt)
				if fieldName == "" || value == nil {
					continue
				}
				if !selectorOn(pass, value, recvObj) {
					continue
				}
				if !isRefType(fieldType(o.strct, fieldName)) || o.sharedAnnotated(fieldName) {
					continue
				}
				report(value, fieldName)
			}
		case *ast.AssignStmt:
			for i := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				checkAssign(pass, o, recvObj, overwritten, node, node.Lhs[i], node.Rhs[i], report)
			}
		}
		return true
	})
}

// checkAssign handles both field-to-field assignment and whole-struct
// star copies.
func checkAssign(pass *analysis.Pass, o *oracle, recvObj types.Object,
	overwritten map[types.Object]map[string]bool, stmt *ast.AssignStmt,
	lhs, rhs ast.Expr, report func(ast.Node, string)) {

	// c.f = o.g — a reference field copied straight off the receiver.
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		base, ok := sel.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[base] == recvObj {
			return
		}
		baseType := pass.TypesInfo.TypeOf(base)
		if p, isPtr := baseType.(*types.Pointer); isPtr {
			baseType = p.Elem()
		}
		if baseType == nil || !types.Identical(baseType, o.named) {
			return
		}
		if !selectorOn(pass, rhs, recvObj) {
			return
		}
		name := sel.Sel.Name
		if isRefType(fieldType(o.strct, name)) && !o.sharedAnnotated(name) {
			report(rhs, name)
		}
		return
	}

	// c := *o or *c = *o — every reference field is aliased at once,
	// except those the body overwrites afterwards.
	star, ok := rhs.(*ast.StarExpr)
	if !ok {
		return
	}
	src, ok := star.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[src] != recvObj {
		return
	}
	target := assignTarget(pass, lhs)
	for i := 0; i < o.strct.NumFields(); i++ {
		f := o.strct.Field(i)
		if !isRefType(f.Type()) || o.sharedAnnotated(f.Name()) {
			continue
		}
		if target != nil && overwritten[target][f.Name()] {
			continue
		}
		report(stmt, f.Name())
	}
}

// assignTarget resolves the object a star-copy writes into (c in
// "c := *o" or "*c = *o").
func assignTarget(pass *analysis.Pass, lhs ast.Expr) types.Object {
	switch v := lhs.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Defs[v]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[v]
	case *ast.StarExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return pass.TypesInfo.Uses[id]
		}
	}
	return nil
}

// litEntry resolves one composite-literal element to (fieldName, value).
func litEntry(strct *types.Struct, index int, elt ast.Expr) (string, ast.Expr) {
	if kv, ok := elt.(*ast.KeyValueExpr); ok {
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			return "", nil
		}
		return key.Name, kv.Value
	}
	if index < strct.NumFields() {
		return strct.Field(index).Name(), elt
	}
	return "", nil
}

// selectorOn reports whether e is a bare "recv.field" selector.
func selectorOn(pass *analysis.Pass, e ast.Expr, recvObj types.Object) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	return ok && pass.TypesInfo.Uses[base] == recvObj
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

// receiverObject returns the object of the Replica receiver identifier.
func receiverObject(pass *analysis.Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}
