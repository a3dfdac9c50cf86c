package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SharedCap guards the worker-pool ownership contract: a closure
// handed to sweep.Run, pdes.Run (directly or through a config field
// such as pdes.Config.Exchange), sweep's Pool.Submit or the worker
// pool's own Pool.Go executes on a pool worker, so it must not capture
// shared mutable state.
// Two capture classes are flagged inside such closures:
//
//   - package-level mutable variables (any package's), which every
//     worker would read and write concurrently — racy, and even when
//     "benignly" racy the fold order becomes schedule-dependent, which
//     breaks the bit-identical-for-any-worker-count guarantee;
//   - variables of the known single-owner types (*sim.EventPool,
//     *phy.Pools, *propagation.RangeCache, *propagation.SharedRangeCache,
//     *node.Runtime, *metrics.Registry, *metrics.Journal) captured from
//     the enclosing scope. None of these are concurrency-safe: reusable
//     pools must come in through the sweep.Context (ctx.Runtime()) so
//     each worker owns its own copy, and registries/journals must be
//     filled after the merge, in cell order, or record order becomes
//     schedule-dependent.
//
// sync and sync/atomic values are exempt from the package-level rule:
// they exist to be shared. Test files are exempt — tests routinely
// capture counters to assert scheduling properties.
var SharedCap = &Analyzer{
	Name: "sharedcap",
	Doc:  "forbid closures passed to sweep.Run/pdes.Run/Pool.Submit/Pool.Go from capturing shared mutable state",
	Run:  runSharedCap,
}

// sharedCapEntryPoints maps importPath → function names (methods as
// Type.Method) whose func-lit arguments run concurrently on a worker
// pool.
var sharedCapEntryPoints = map[string]map[string]bool{
	"routeless/internal/sweep":   {"Run": true, "Pool.Submit": true},
	"routeless/internal/pdes":    {"Run": true},
	"routeless/internal/workers": {"Pool.Go": true},
}

// sharedCapPoolTypes are the single-owner types that must never cross
// into a worker closure from the outside; keyed by package path suffix
// then type name.
var sharedCapPoolTypes = map[string]map[string]bool{
	"routeless/internal/sim":         {"EventPool": true},
	"routeless/internal/phy":         {"Pools": true},
	"routeless/internal/propagation": {"RangeCache": true, "SharedRangeCache": true},
	"routeless/internal/node":        {"Runtime": true},
	"routeless/internal/metrics":     {"Registry": true, "Journal": true},
}

func runSharedCap(p *Pass) {
	if !p.InInternal() && !p.InCmd() {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isWorkerEntryPoint(p, call.Fun) {
				return true
			}
			// Func literals may arrive as direct arguments (sweep.Run's
			// body closure) or inside a config struct (pdes.Config.Exchange);
			// both run on worker goroutines, so walk the whole argument.
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if lit, ok := m.(*ast.FuncLit); ok {
						checkWorkerClosure(p, lit)
						return false
					}
					return true
				})
			}
			return true
		})
	}
}

// isWorkerEntryPoint reports whether fun names one of the worker-pool
// entry points — a package function or a method call on a pool value —
// unwrapping explicit generic instantiation (sweep.Run[T](...)).
func isWorkerEntryPoint(p *Pass, fun ast.Expr) bool {
	switch e := fun.(type) {
	case *ast.IndexExpr:
		return isWorkerEntryPoint(p, e.X)
	case *ast.IndexListExpr:
		return isWorkerEntryPoint(p, e.X)
	case *ast.SelectorExpr:
		if path := p.PkgNameOf(e); path != "" {
			return sharedCapEntryPoints[path][e.Sel.Name]
		}
		// A method call on a pool value: key by the receiver's type.
		recv := namedObj(p.TypeOf(e.X))
		return recv != nil && sharedCapEntryPoints[recv.Pkg().Path()][recv.Name()+"."+e.Sel.Name]
	}
	return false
}

// checkWorkerClosure flags shared-mutable-state captures in one worker
// closure. Deduplicated per variable: one report per captured object.
func checkWorkerClosure(p *Pass, lit *ast.FuncLit) {
	if p.Info == nil {
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] {
			return true
		}
		switch {
		case isPackageLevel(v) && !isSyncValue(v.Type()):
			reported[v] = true
			p.Reportf(id.Pos(), "worker closure reads package-level var %s; shared mutable state makes the sweep schedule-dependent — derive per-worker state from the cell seed or sweep.Context instead", v.Name())
		case isPoolType(v.Type()) && v.Pos() < lit.Pos():
			// Captured from outside the literal: every worker shares one
			// instance. (One defined inside the literal is that worker's
			// own.)
			reported[v] = true
			p.Reportf(id.Pos(), "worker closure captures %s %s from the enclosing scope; this type is single-owner — take pools from sweep.Context (ctx.Runtime()) and fill registries/journals after the merge, in cell order", typeString(v.Type()), v.Name())
		}
		return true
	})
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isSyncValue reports whether t is (a pointer to) a type from sync or
// sync/atomic — values designed for concurrent sharing.
func isSyncValue(t types.Type) bool {
	obj := namedObj(t)
	if obj == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// isPoolType reports whether t is (a pointer to) one of the per-worker
// pool types.
func isPoolType(t types.Type) bool {
	obj := namedObj(t)
	if obj == nil {
		return false
	}
	for suffix, names := range sharedCapPoolTypes {
		if strings.HasSuffix(obj.Pkg().Path(), suffix) && names[obj.Name()] {
			return true
		}
	}
	return false
}

// namedObj returns the type name behind t or *t when it is a named
// type declared in a package, else nil.
func namedObj(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return named.Obj()
}

// typeString renders t compactly for diagnostics (*node.Runtime, not
// *routeless/internal/node.Runtime).
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
