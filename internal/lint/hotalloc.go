package lint

import (
	"go/ast"
)

// HotAlloc supports the ROADMAP zero-alloc push: inside a closure
// handed to parallel.For/ForWorker/Run (or their ctx variants) or to
// the engine layer's dispatch (internal/engine: an Engine's
// ForWorkerCtx, engine.ForCtx, engine.RunCtx and engine.Chunked),
// per-item `make` calls, growing `append`s, and fmt.Sprint* formatting
// multiply allocations by the item count. The fix is the per-worker
// scratch pattern (O(workers) allocations, see image.RobertsCrossSCOn)
// or hoisting the buffer outside the fan-out. Results that must be
// written per item (`out[i] = ...`) are unaffected — only fresh
// allocations inside the body are flagged.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no per-item make/append-growth/fmt.Sprint* inside worker bodies; use per-worker scratch",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
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
					out = append(out, checkHotBody(p, fl)...)
				}
			}
			return true
		})
	}
	return out
}

func checkHotBody(p *Package, fl *ast.FuncLit) []Finding {
	var out []Finding
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltin(p, call, "make"):
			out = append(out, p.Findingf(call, "hotalloc",
				"make inside a worker body allocates per item; "+
					"hoist into per-worker scratch (parallel.ForWorker worker index)"))
		case isBuiltin(p, call, "append"):
			out = append(out, p.Findingf(call, "hotalloc",
				"append inside a worker body may grow per item; "+
					"pre-size the destination or use per-worker scratch"))
		default:
			callee := p.Callee(call)
			if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				switch callee.Name() {
				case "Sprintf", "Sprint", "Sprintln", "Errorf":
					out = append(out, p.Findingf(call, "hotalloc",
						"fmt.%s inside a worker body allocates per item; "+
							"format outside the fan-out or into per-worker scratch", callee.Name()))
				}
			}
		}
		return true
	})
	return out
}
