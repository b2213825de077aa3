package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// OraclePair enforces the repo's oracle discipline: every exported
// entry point that accepts an engine.Engine parameter must be
// registered in the generic cross-engine equivalence suite —
// referenced from a _test.go file in the same package that calls
// enginetest.Run. The suite is what replays the entry point on every
// engine of enginetest.Engines() against the engine.Serial reference
// (the oracle);
// an unregistered entry point dispatches work nothing ever
// cross-checks.
var OraclePair = &Analyzer{
	Name: "oraclepair",
	Doc:  "engine-accepting entry points must register in the enginetest suite",
	Run:  runSuiteCheck,
}

// runSuiteCheck reports exported functions and methods in internal/
// packages with an engine.Engine parameter that no test file invoking
// enginetest.Run references. The engine layer itself (internal/engine
// and its subpackages) is exempt — its wrappers and test engines take
// Engine values without dispatching domain work.
func runSuiteCheck(p *Package) []Finding {
	if !p.IsInternal() ||
		strings.HasSuffix(p.Path, "/internal/engine") ||
		strings.Contains(p.Path, "/internal/engine/") {
		return nil
	}
	suite := suiteFiles(p)
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !hasEngineParam(p, fd) {
				continue
			}
			if inSuite(suite, fd.Name.Name) {
				continue
			}
			out = append(out, p.Findingf(fd.Name, "oraclepair",
				"engine entry point %s is not registered in the cross-engine suite; add an enginetest.Case for it in a test file that calls enginetest.Run",
				fd.Name.Name))
		}
	}
	return out
}

// hasEngineParam reports whether the declaration takes a parameter
// that dispatches on the engine layer: the Engine interface itself or
// any concrete internal/engine type implementing it (engine.Shard,
// *engine.Limited). Concrete wrappers count because an entry point
// taking one fans work out exactly like an interface-typed one — its
// closures are worker bodies the suite must cross-check.
func hasEngineParam(p *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok {
			continue
		}
		if isEngineType(tv.Type) {
			return true
		}
	}
	return false
}

// isEngineType reports whether t is the internal/engine Engine
// interface or an internal/engine named type (or pointer to one)
// implementing it.
func isEngineType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		ptr, isPtr := t.(*types.Pointer)
		if !isPtr {
			return false
		}
		if named, ok = ptr.Elem().(*types.Named); !ok {
			return false
		}
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pkgSuffixIs(obj, "internal/engine") {
		return false
	}
	if obj.Name() == "Engine" {
		return true
	}
	ifaceObj := obj.Pkg().Scope().Lookup("Engine")
	if ifaceObj == nil {
		return false
	}
	iface, ok := ifaceObj.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// suiteFiles returns the package's test files that call enginetest.Run
// (through whatever local name the import is bound to).
func suiteFiles(p *Package) []*ast.File {
	var out []*ast.File
	for _, tf := range p.TestFiles {
		local := enginetestImportName(tf)
		if local == "" || local == "_" {
			continue
		}
		calls := false
		ast.Inspect(tf, func(n ast.Node) bool {
			if calls {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					calls = true
				}
			}
			return true
		})
		if calls {
			out = append(out, tf)
		}
	}
	return out
}

// enginetestImportName returns the local name a file binds the
// enginetest package to, or "" when the file does not import it. Test
// files are parsed but not type-checked, so the check is syntactic on
// the import path suffix.
func enginetestImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "internal/engine/enginetest" || strings.HasSuffix(path, "/internal/engine/enginetest") {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "enginetest"
		}
	}
	return ""
}

// inSuite reports whether any suite file references the identifier.
func inSuite(suite []*ast.File, name string) bool {
	for _, tf := range suite {
		if referencesName(tf, name) {
			return true
		}
	}
	return false
}

func referencesName(f *ast.File, name string) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
