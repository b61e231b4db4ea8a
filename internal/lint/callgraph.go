package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is a type-aware, cross-package index of every declared
// function and method in the loaded packages. An analyzer walks a body
// itself and resolves each call site it meets with CalleeObject and
// NodeOf: direct function calls, package-qualified calls, and method calls
// on concrete receiver types resolve (through go/types Selections, so a
// call in internal/sched into internal/telemetry lands on the right
// declaration). Dynamic dispatch — interface method calls, calls through
// func values and fields — resolves to nil: the concurrency analyzers
// treat those as opaque rather than guessing.
type CallGraph struct {
	// nodes maps a function object to its node.
	nodes map[types.Object]*CallNode
	// ordered holds the nodes in deterministic (position) order.
	ordered []*CallNode
}

// CallNode is one declared function or method.
type CallNode struct {
	// Obj is the function's types object (always a *types.Func).
	Obj *types.Func
	// Decl is the declaration; Decl.Body may be nil for externally
	// implemented functions.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
}

// Name renders the node as pkg.Func or pkg.(Type).Method.
func (n *CallNode) Name() string {
	name := n.Obj.Name()
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	return n.Pkg.Types.Name() + "." + name
}

// Nodes returns every node in deterministic order.
func (g *CallGraph) Nodes() []*CallNode { return g.ordered }

// NodeOf returns the node of a function object, or nil.
func (g *CallGraph) NodeOf(obj types.Object) *CallNode {
	if obj == nil {
		return nil
	}
	return g.nodes[obj]
}

// BuildCallGraph indexes every function declaration across the packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[types.Object]*CallNode{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj] = &CallNode{Obj: obj, Decl: fn, Pkg: pkg}
			}
		}
	}
	g.ordered = make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.ordered = append(g.ordered, n)
	}
	sort.Slice(g.ordered, func(i, j int) bool {
		return g.ordered[i].Decl.Pos() < g.ordered[j].Decl.Pos()
	})
	return g
}

// CalleeObject resolves a call expression's static target: a declared
// function (pkg-local or imported) or a method on a concrete receiver
// type. Dynamic calls (interface methods, func values) return nil.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if m, ok := sel.Obj().(*types.Func); ok {
					// Interface methods have no body to resolve to; the
					// graph records them as unresolved.
					if isInterfaceRecv(m) {
						return nil
					}
					return m
				}
			}
			return nil
		}
		// No selection: a package-qualified call (telemetry.NewRegistry).
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

func isInterfaceRecv(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return types.IsInterface(recv.Type())
}
