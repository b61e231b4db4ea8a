package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves a call of the form pkg.Func to its package path and
// function name, when pkg is a package qualifier.
func calleeOf(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isNamedType reports whether t (after dereferencing pointers) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// receiverObj returns the object of a method's receiver identifier, or nil
// for anonymous/absent receivers.
func receiverObj(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fn.Recv.List[0].Names[0]]
}

// usesObject reports whether e is an identifier resolving to obj.
func usesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && obj != nil && info.ObjectOf(id) == obj
}
