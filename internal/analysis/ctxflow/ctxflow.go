// Package ctxflow enforces context propagation through the library layers.
//
// PR 1's retry deadlines and PR 3's stream cancellation only work if every
// source round-trip threads the caller's context. A single
// context.Background() in a library package silently detaches the whole
// call subtree from cancellation. This pass flags, in library packages:
//
//   - any call to context.Background() or context.TODO();
//   - any method call that drops an in-scope context: the enclosing
//     function has a context.Context parameter, yet the call targets a
//     method M whose receiver also provides M+"Ctx" taking a context (an
//     M / MCtx wrapper pair).
//
// Command-line entry points (cmd/..., package main), examples, offline
// experiment harnesses (HarnessPackages) and _test.go files are out of
// scope: a process root is exactly where context.Background() belongs.
// Library code that must root a context anyway carries an audited allow
// comment for this analyzer (see DESIGN.md "Enforced invariants"); none
// is needed today, since every mediator query method and Source.QueryCtx
// take the caller's context.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"qpiad/internal/analysis"
)

// HarnessPackages are library-shaped packages that are really offline
// drivers: they own their process lifetime the way cmd/ binaries do, so
// rooting contexts there is deliberate.
var HarnessPackages = []string{
	"internal/experiments",
	"internal/eval",
	"internal/datagen",
}

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background()/TODO() in library packages and calls that drop an in-scope context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	path := pass.Pkg.Path()
	if strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/") ||
		strings.HasPrefix(path, "examples/") || strings.Contains(path, "/examples/") {
		return nil
	}
	if analysis.PathMatches(path, HarnessPackages...) {
		return nil
	}
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil
}

// checkFile walks one file keeping the full enclosing-node stack, so each
// call site can see which functions (and their context parameters) enclose
// it — closures inherit their parents' contexts.
func checkFile(pass *analysis.Pass, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			checkCall(pass, stack, call)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr) {
	ctxInScope := hasCtxParam(pass, stack)

	if pkg, name, ok := analysis.PkgFunc(pass.Info, call); ok && pkg == "context" &&
		(name == "Background" || name == "TODO") {
		if ctxInScope {
			pass.Reportf(call.Pos(),
				"context.%s() drops the in-scope context parameter: thread it through instead", name)
		} else {
			pass.Reportf(call.Pos(),
				"context.%s() in a library package detaches callees from cancellation and deadlines: accept a ctx parameter", name)
		}
		return
	}

	if !ctxInScope {
		return
	}
	// A call to method M while the receiver also offers M+"Ctx"(ctx, ...)
	// silently reroots the context (a Query vs QueryCtx wrapper pair).
	recv := analysis.ReceiverOf(pass.Info, call)
	if recv == nil {
		return
	}
	sel := call.Fun.(*ast.SelectorExpr)
	name := sel.Sel.Name
	if strings.HasSuffix(name, "Ctx") {
		return
	}
	obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, name+"Ctx")
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || !analysis.IsContext(sig.Params().At(0).Type()) {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s drops the in-scope context: use %sCtx", name, name)
}

// hasCtxParam reports whether any enclosing function declares a
// context.Context parameter (closures see their parents' contexts).
func hasCtxParam(pass *analysis.Pass, stack []ast.Node) bool {
	for _, n := range stack {
		var ft *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, fld := range ft.Params.List {
			if t := pass.Info.TypeOf(fld.Type); t != nil && analysis.IsContext(t) {
				return true
			}
		}
	}
	return false
}
