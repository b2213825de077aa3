package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRand enforces the repo's determinism discipline:
//
//   - no time.Now and no global math/rand state in internal/ — every
//     result must replay bit-identically from explicit seeds;
//   - any worker closure passed to the engine layer's dispatch
//     (internal/engine: an Engine's ForWorkerCtx, engine.ForCtx,
//     engine.RunCtx and engine.Chunked) that constructs an RNG must
//     derive its seed through stochastic.DeriveSeed (directly, or via
//     a same-package seed helper such as trialSeeds), so results are
//     identical at any GOMAXPROCS and under any scheduling.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "deterministic randomness: no wall-clock or global RNG state; worker closures seed via stochastic.DeriveSeed",
	Run:  runDetRand,
}

// rngConstructors are the seeded RNG constructors of
// internal/stochastic: constructing one inside a worker closure is
// only deterministic when the seed argument is index-derived.
var rngConstructors = map[string]bool{
	"NewSplitMix64":    true,
	"NewReSCWithSeeds": true,
}

// pkgSuffixIs reports whether obj's package import path is path or
// ends in "/"+path — matching repo packages by module-relative suffix
// so fixture modules resolve identically.
func pkgSuffixIs(obj types.Object, path string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == path || strings.HasSuffix(p, "/"+path)
}

func isStochasticFunc(obj *types.Func, name string) bool {
	return obj != nil && obj.Name() == name && pkgSuffixIs(obj, "internal/stochastic")
}

// dispatchesWorkers reports whether the call hands worker closures to
// a fan-out primitive of the engine layer — Engine.ForWorkerCtx,
// engine.ForCtx, engine.RunCtx and engine.Chunked — the worker
// closures both analyzers inspect. internal/engine is the only code
// that starts worker goroutines, so these are every fan-out there is.
// Dispatch stops early on cancellation but never re-runs an item, so
// the same determinism and allocation rules apply to every closure.
func dispatchesWorkers(p *Package, call *ast.CallExpr) bool {
	callee := p.Callee(call)
	if callee == nil || !pkgSuffixIs(callee, "internal/engine") {
		return false
	}
	switch callee.Name() {
	case "ForWorkerCtx", "ForCtx", "RunCtx", "Chunked":
		return true
	}
	return false
}

func runDetRand(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if p.IsInternal() {
			out = append(out, detRandWallClock(p, f)...)
		}
		out = append(out, detRandWorkers(p, f)...)
	}
	return out
}

// detRandWallClock flags time.Now and global math/rand usage in
// internal/ files.
func detRandWallClock(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "time":
			if obj.Name() == "Now" {
				out = append(out, p.Findingf(id, "detrand",
					"time.Now in internal/ breaks deterministic replay; thread an explicit seed instead"))
			}
		case "math/rand", "math/rand/v2":
			// Package-level functions draw from the shared global
			// source; constructors (New, NewSource, NewPCG, ...) are
			// fine when seeded deterministically.
			if obj.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(obj.Name(), "New") {
				out = append(out, p.Findingf(id, "detrand",
					"global %s.%s draws from shared process-wide state; construct a seeded generator instead",
					obj.Pkg().Name(), obj.Name()))
			}
		}
		return true
	})
	return out
}

// detRandWorkers checks every closure handed to an engine fan-out
// primitive: if it constructs an RNG, the seed must flow through stochastic.DeriveSeed, either in the
// closure body or inside a same-package helper the closure calls (the
// trialSeeds pattern).
func detRandWorkers(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !dispatchesWorkers(p, call) {
			return true
		}
		for _, arg := range call.Args {
			if fl, ok := arg.(*ast.FuncLit); ok {
				out = append(out, checkWorkerBody(p, fl)...)
			}
		}
		return true
	})
	return out
}

func checkWorkerBody(p *Package, fl *ast.FuncLit) []Finding {
	var ctors []*ast.CallExpr
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := p.Callee(call)
		if obj == nil {
			return true
		}
		if rngConstructors[obj.Name()] && pkgSuffixIs(obj, "internal/stochastic") {
			ctors = append(ctors, call)
		}
		if (obj.Pkg() != nil && (obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2")) &&
			strings.HasPrefix(obj.Name(), "New") {
			ctors = append(ctors, call)
		}
		return true
	})
	if len(ctors) == 0 {
		return nil
	}
	if referencesDeriveSeed(p, fl.Body) {
		return nil
	}
	// One level of indirection: a same-package function or method
	// called from the closure (trialSeeds, waterfallSeeds, ...) that
	// itself uses DeriveSeed satisfies the rule.
	if helperDerivesSeed(p, fl.Body) {
		return nil
	}
	var out []Finding
	for _, c := range ctors {
		out = append(out, p.Findingf(c, "detrand",
			"RNG constructed in a worker body without stochastic.DeriveSeed; "+
				"derive the seed from the item index for cross-worker determinism"))
	}
	return out
}

// referencesDeriveSeed reports whether any identifier in the subtree
// resolves to stochastic.DeriveSeed.
func referencesDeriveSeed(p *Package, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := p.Info.Uses[id].(*types.Func); ok && isStochasticFunc(obj, "DeriveSeed") {
				found = true
			}
		}
		return true
	})
	return found
}

// helperDerivesSeed looks one call level deep: every same-package
// function invoked from the worker body is checked for a DeriveSeed
// reference in its declaration body.
func helperDerivesSeed(p *Package, body ast.Node) bool {
	decls := p.funcDecls()
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := p.Callee(call)
		if obj == nil || obj.Pkg() == nil || p.Types == nil || obj.Pkg() != p.Types {
			return true
		}
		if d := decls[obj]; d != nil && d.Body != nil && referencesDeriveSeed(p, d.Body) {
			found = true
		}
		return true
	})
	return found
}

// funcDecls maps this package's function objects to their syntax.
func (p *Package) funcDecls() map[*types.Func]*ast.FuncDecl {
	m := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					m[obj] = fd
				}
			}
		}
	}
	return m
}
