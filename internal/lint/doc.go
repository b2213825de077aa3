// Package lint is the repo's static-analysis suite: a stdlib-only
// analyzer driver (go/parser + go/ast + go/types, with the standard
// library resolved from $GOROOT/src by go/importer's source importer —
// no x/tools, no go/packages) that enforces the conventions this
// reproduction's correctness story rests on. Run it via `go run
// ./cmd/osclint ./...` or `make lint`; CI fails on any unsuppressed
// finding.
//
// # Why these rules exist
//
// Every parallel engine in the repo is deterministic by construction:
// randomness derives from (seed, item index) via stochastic.DeriveSeed,
// never from scheduling, wall clock, or shared generator state. Every
// engine-accepting entry point is replayed on every engine of
// enginetest.Engines() against the engine.Serial reference. Output renderers must not leak
// Go's randomized map iteration order, and errors must propagate
// instead of being swallowed. All four conventions have been violated
// before: a CI smoke diff caught map-iteration nondeterminism in
// optics.RenderSpectrumASCII only at runtime, and oscspice once
// silently swallowed evaluation errors. This suite moves those bug
// classes from runtime diffs to analysis time — and now that the
// engine layer (internal/engine) multiplies the backends sharing each
// entry point, the rules cover engine-dispatched worker bodies too.
//
// # Rules
//
// detrand — deterministic randomness. In internal/ packages, time.Now
// and the global math/rand functions are banned outright: results must
// replay bit-identically from explicit seeds. Everywhere, a closure
// passed to a worker dispatcher — parallel.For / ForWorker / Run /
// ForCtx / ForWorkerCtx, or an Engine's ForWorkerCtx, engine.ForCtx,
// engine.RunCtx and engine.Chunked — that constructs an RNG
// (stochastic.NewSplitMix64, NewLFSR, NewChaoticSource,
// NewChaoticLaserSNG, NewReSCWithSeeds, or a math/rand constructor)
// must reference stochastic.DeriveSeed — directly in the body, or
// inside a same-package seed helper it calls (the trialSeeds /
// waterfallSeeds pattern) — so every item's randomness is a function
// of its index alone and results are identical at any GOMAXPROCS.
//
// mapiter — ordered output from map iteration. A `range` over a map
// whose body appends to a slice, writes through an io.Writer or
// fmt.Fprint*, sends on a channel, builds a string, or adds table rows
// leaks randomized iteration order into output. The collect-then-sort
// idiom passes: appends are clean when the destination slice is handed
// to a sort.* / slices.Sort* call later in the same block.
//
// oraclepair — suite registration. Every exported function or method
// in an internal/ package that takes an engine.Engine parameter must
// be exercised by the cross-engine suite — referenced from a _test.go
// file that imports internal/engine/enginetest and calls its Run —
// otherwise the entry point is never replayed across engines against
// the engine.Serial oracle. internal/engine itself (and its
// subpackages) is exempt, being the layer under test.
//
// errprop — error propagation in cmd/ and internal/. Discarding an
// error via `_ =` (including the error slot of a multi-assign) or a
// bare call statement is flagged. defer/go statements, fmt.Print* to
// stdout, and strings.Builder / bytes.Buffer methods are exempt.
//
// hotalloc — allocation in hot worker bodies. Inside worker closures
// (the same parallel / engine dispatchers as detrand), `make`,
// growing `append`, and fmt.Sprint* run
// once per item; the rule points at the per-worker scratch pattern
// (O(workers) allocations, see image.RobertsCrossSCOn) backing the
// ROADMAP zero-alloc push.
//
// # Suppressions
//
// Intentional violations are annotated in place:
//
//	//osclint:ignore rule[,rule] reason text
//
// on the offending line (trailing) or the line above (standalone).
// The reason is mandatory — an ignore without one is itself reported —
// so each annotation documents why the convention does not apply
// (e.g. a serial oracle that must consume one RNG draw per clock by
// definition). `osclint -all` lists suppressed findings with their
// reasons; `osclint -json` emits machine-readable output.
package lint
