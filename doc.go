// Package repro is a from-scratch Go reproduction of H. El-Derhalli,
// S. Le Beux and S. Tahar, "Stochastic Computing with Integrated
// Optics", DATE 2019. The module path is "repro"; it builds with the
// standard toolchain and no external dependencies.
//
// Quickstart:
//
//	go test ./...                  # full verification suite
//	go run ./examples/quickstart   # build the paper circuit, evaluate
//	go test -bench=. -benchmem     # regenerate the paper's figures
//
// # Evaluation engines
//
// Every stochastic evaluator comes in two equivalent forms. The
// bit-serial path (ReSC.Step/Evaluate, core.Unit.Step/Evaluate)
// advances one clock per call and serves as the oracle. The
// word-parallel path simulates 64 clocks per machine word — SNG words
// (stochastic.SNG.NextWord), a bitwise carry-save adder
// tree for the data-bit sum (stochastic.AddPlane/PlaneEquals), and a
// word-at-a-time multiplexer / decision-table lookup — and emits
// bit-identical streams (ReSC.EvaluateWords, core.Unit.EvaluateWords).
// On top of that, stochastic.EvaluateBatch(ctx, e, …) and
// core.Unit.EvaluateBatch(ctx, e, …) dispatch independent inputs on
// the caller's engine with per-input seeds derived by
// stochastic.DeriveSeed, so batch results are reproducible on any
// engine and core count. The gamma-correction LUTs, sweeps and
// oscbench all run through these batch evaluators.
//
// The two noiseless batch evaluators count ones without building the
// stream. Their sources are fresh SplitMix64 generators, which are
// counter-based: draw t of a generator seeded s is mix(s + (t+1)·γ),
// so one draw can be computed on its own. stochastic.ReSCOnesSplitMix
// builds the data words and carry-save planes as EvaluateWords does,
// then draws coefficient k only at the clocks whose data weight is k,
// the clocks where the multiplexer selects it. That is n+1 draws per
// clock instead of 2n+1, with the same ones count. The optical unit
// takes this path when its decision table is in mux form, meaning the
// output bit is the coefficient bit its weight selects (dec[w][z] =
// bit w of z). Every feasible MRR-first design checked so far is in
// mux form; a non-mux table (order 2 at 0.1 nm) keeps the packed
// table lookup. Stateful generators (EvaluateWords, Cycles) and the
// noisy path keep drawing every coefficient: under noise, every
// coefficient bit moves the received power.
//
// Every measurement and sweep on top of those primitives dispatches
// through a pluggable engine layer (internal/engine). An Engine says
// how independent work items run — engine.Serial in index order on
// the calling goroutine, engine.WordParallel over a GOMAXPROCS-sized
// worker pool, the only code in the module that starts worker
// goroutines — and every sweep-shaped path has exactly
// one entry point, which takes its engine (and, when it can be
// interrupted, its context) from the caller: AccuracyVsLengthCtx,
// RobertsCrossSCOn, dse.SweepCtx, OptimalSpacingCtx, ...
// (`oscbench -engine serial` selects the engine for a whole run). The
// oracle is the same entry point on engine.Serial, not a parallel code
// copy, and a study dispatches on its engine at one level only: fan-outs
// nested inside a sweep item run on engine.Serial. Cross-engine
// bit-equivalence and
// GOMAXPROCS-independence are pinned by one generic suite,
// internal/engine/enginetest: each package registers its engine entry
// points as enginetest cases, replayed on every engine of
// enginetest.Engines() at GOMAXPROCS 1 and 4 against the engine.Serial
// reference. An engine implements one dispatch method, ForWorkerCtx;
// engine.ForCtx, RunCtx and Chunked are built on it.
//
// The noise-aware transient path is word-parallel too: the received
// power is a pure function of (weight, z-mask), so
// core.Unit.EvaluateNoisy resolves 64 noisy threshold decisions per
// word from a power table plus block Gaussian noise
// (transient.Gaussian.Fill, Box–Muller over a
// stochastic.SplitMix64). transient.Simulator.EvaluateWords emits
// streams bit-identical to the serial Step loop;
// transient.Simulator.EvaluateBatch dispatches per-trial seeds on the
// caller's engine, and the dse.NoiseStudy Monte-Carlo harness
// (oscbench -fig noise) runs it on engine.Serial inside each of its
// engine-dispatched (probe, sigma) points. The transient measurements
// follow suit, each an
// engine-dispatched entry point (TraceCtx, MeasureEyeCtx,
// BERWaterfallCtx, AccuracyVsLengthCtx): the trace and the eye decode
// 64 cycles per word (core.Unit.Cycles) with block noise, and the BER
// waterfall (oscbench -fig waterfall) and the accuracy-vs-length
// study fan their points and trials over the
// selected engine with derived seeds — bit-identical across engines at
// any GOMAXPROCS. Quickstart:
//
//	sim := transient.NewSimulator(u, 2)
//	val, _, err := sim.EvaluateWords(0.5, 4096)        // one noisy stream
//	vals, err := sim.EvaluateBatch(ctx, e, trialInputs, 4096) // Monte-Carlo fan-out
//	ber, err := sim.MeasureWorstCaseBER(200_000)       // batched Eq. (8) patterns
//
// MeasureWorstCaseBER, behind /v1/ber and the waterfall figure, needs
// only decisions: stochastic.Gaussian.ThresholdWord decides 64 slots
// per word, bit-identical to adding FillScaled noise. A radius screen
// decides a Box–Muller pair that cannot cross the threshold with one
// integer compare; a certified bracket of r² and of the angle, read
// from two small tables, settles almost every other pair; only a pair
// whose noise lands within a table step of the threshold runs the
// exact Log, Sqrt and Sincos.
//
// Image workloads run word-parallel end to end. Gamma correction
// builds its 256-level LUT as one batch on the caller's engine
// (image.GammaReSC, image.GammaOptical) — and because the LUT is a
// pure function of its recipe, image.GammaLUTCache memoizes it across
// frames and image.GammaVideoCtx corrects whole frame batches through
// one cached table (oscbench -fig video), the LUT build and the frames
// both dispatched on the engine; Robert's-cross edge detection — per-pixel
// correlated streams, no LUT shortcut — runs as a tiled kernel
// (image.RobertsCrossSCOn) built from
// word-level plane kernels: stochastic.FillAbsDiffPlane draws one
// shared uniform per clock against two thresholds and sets the bits
// where exactly one compare passes, so the plane computes |a−b|
// exactly (its test oracle, FillCorrelatedPlanes in plane_test.go,
// builds the correlated pair and XORs it), and the Mux plane
// combinator runs on per-worker scratch with zero per-pixel
// allocations. Per-pixel stochastic.DeriveSeed
// seeding keeps the tiled output bit-identical to an engine.Serial run
// on any GOMAXPROCS; flat image regions elide their RNG draws
// entirely. core.AnalyzeYieldCtx fans Monte-Carlo dies over the engine
// with per-die derived seeds, reproducible on any core count.
// Quickstart:
//
//	sc, err := image.RobertsCrossSCOn(engine.WordParallel, src, 4096, seed) // packed tiled engine
//	oracle, err := image.RobertsCrossSCOn(engine.Serial, src, 4096, seed)   // identical bits
//	rows, err := dse.EdgeStudy(ctx, e, []int{64, 256, 1024, 4096}, 7)        // oscbench -fig edge
//
// The figure/design-space layer runs on a deterministic parallel
// sweep engine (internal/dse): every study is an index-ordered list of
// independent points fanned over the caller's engine, with any randomness
// derived from the point index (stochastic.DeriveSeed) — so `oscbench
// -fig all` and the dse APIs scale with cores yet return identical
// tables at any GOMAXPROCS (cap the pool with `oscbench -workers N`,
// print per-figure wall time with `-timing`). Underneath, core.Circuit
// caches its analysis once per instance — per-device transmission
// factors, the (weight, z-mask) received-power table (PowerTable), the
// power bands and the Eq. (8) margin — so design solves, yield dies
// and the packed engines stop re-evaluating ring Lorentzians per
// state. Even the golden-section spacing search
// (core.EnergyModel.OptimalSpacingCtx) fans its bracketing grid scan —
// the ~60 independent design solves that dominate it — over the
// engine in contiguous chunks (engine.Chunked), so dispatch overhead
// no longer eats the fan-out win, bit-identical on engine.Serial. CI
// tracks the speed itself: the
// bench-delta job records the tentpole benchmarks as BENCH_PR5.json
// and gates them against the committed BENCH_BASELINE.json (refresh
// with `make bench-baseline`, see cmd/benchdelta). Quickstart:
//
//	pts, err := dse.Fig6A(ctx, e, 12, 12)                  // grid of MZIFirst solves
//	rows, err := dse.SweepCtx(ctx, e, n, func(i int) (R, error) {
//	    return point(stochastic.DeriveSeed(seed, i))       // Monte-Carlo, per-point seeds
//	})
//	pow := circuit.PowerTable()                            // shared (weight, zmask) -> mW
//
// The long-running sweeps are robust to interruption and faults. Every
// engine dispatches under a context (Engine.ForWorkerCtx,
// engine.RunCtx): SIGINT, a deadline (`oscbench -timeout`), or a
// worker panic stops the fan-out at an item boundary and surfaces a
// typed *engine.Partial — which items completed, and why it stopped —
// instead of crashing; the entry points (AnalyzeYieldCtx,
// BERWaterfallCtx, AccuracyVsLengthCtx, the batch evaluators,
// GammaVideoCtx, dse.SweepCtx/GridCtx, every dse figure generator)
// thread it through every layer.
// On top of that,
// dse.Checkpointer snapshots completed sweep points to disk (atomic
// writes, fail-closed content-hash keys) so an interrupted run
// resumes by re-running only the missing indices — bit-identical to
// an uninterrupted run, because every point depends on (key, index)
// alone. `oscbench -fig yield -checkpoint y.json`, ^C, then `-resume`
// demonstrates the round trip; CI replays it as a smoke test. The
// failure paths themselves are tested by deterministic fault
// injection: enginetest.Chaos wraps any engine to drop-then-retry,
// delay, or panic on chosen items, and the enginetest.RunChaos suite
// asserts every entry point either recovers bit-identically or fails
// with a typed error naming the faulting index.
//
// # Sharding and merge
//
// The same determinism contract — every point a pure function of
// (key, index) — makes sweeps distributable with no coordination.
// engine.Shard wraps any engine to run only the indices a shard owns
// (round-robin i%N==K, or contiguous blocks), bit-identical on the
// owned subset; a shard that finishes its slice reports the rest
// through the usual *engine.Partial (Done bitmap = ownership,
// engine.ErrShardRemainder as the cause), so callers distinguish "my
// share is done" from a genuine interruption. `oscbench -fig yield
// -shard k/n -checkpoint y.json` runs one leg on one machine, writing
// its snapshot to the shard-tagged y.shardKofN.json (the key hash
// excludes the shard, so all legs address the same study); cmd/oscmerge
// assembles the legs by point index, failing closed on key mismatches,
// gaps, or disagreeing overlaps, and its output is byte-identical to an
// uninterrupted unsharded checkpoint — render it with `-checkpoint
// y.json -resume`, which re-runs zero dies. The HTTP service accepts
// the same split ({"shard":k,"of":n} on /v1/yield). CI's shard-merge
// job replays the whole recipe and diffs against the unsharded run.
//
// All of it is servable over HTTP: cmd/oscserve (internal/serve)
// exposes the figure registry (shared with oscbench via
// internal/figures), the BER waterfall, the checkpointable yield
// study and the gamma/edge image operators as a JSON API — POST
// /v1/figures/{key}, /v1/ber, /v1/yield, /v1/image/{gamma,edge}, GET
// /v1/figures, /healthz, /readyz. The service composes the layers
// above into crash-safety guarantees: a bounded job queue answers 503
// with Retry-After instead of spawning unbounded goroutines, every
// job dispatches on one shared engine.Limited (a slot-semaphore
// engine, registered and enginetest-verified) so concurrent requests
// never oversubscribe the machine, per-request deadlines thread into
// the ctx-first entry points (every figure included) and surface
// engine.Partial progress in typed 504 bodies, a panicking work item becomes a typed 500 naming the
// faulting index while the server keeps serving, and SIGTERM drains
// gracefully — in-flight sweeps checkpoint at an item boundary, and a
// restarted server resumes a re-POSTed /v1/yield byte-identical to an
// uninterrupted run. Responses are cached under the same fail-closed
// (figure, config, seed, N) content address the checkpoints use,
// which the determinism contract makes safe: equal keys are equal
// bytes on any engine at any worker count. See internal/serve's
// package comment for the full API, error-kind and retry reference.
//
// Three committed reference outputs pin the bytes: testdata/golden
// holds the text of `oscbench -fig all -grid 4 -sweep 5`, the SHA-256
// of the PGM from `gammasim -size 48 -stream 1024` and the quickstart
// output, and a golden test beside each command regenerates and
// compares its file. The bit-identity claim covers linux/amd64 builds
// at GOAMD64=v1 (the default) and GOAMD64=v3, which write the same
// three outputs. arm64, where the compiler fuses x*y+z into one FMA
// instruction by default, is unverified.
//
// The implementation lives in internal/ packages:
//
//   - internal/numeric — numerical substrate (special functions,
//     minimization, linear algebra, Bernstein bases);
//   - internal/optics — silicon-photonic device models (MZI, micro-
//     ring resonators, TPA tuning, lasers, photodetector);
//   - internal/stochastic — stochastic-computing substrate, the
//     electronic ReSC baseline of the paper's Fig. 1, and the packed
//     word-parallel evaluation engine;
//   - internal/engine — the pluggable evaluation-engine layer
//     (Serial, WordParallel and its worker pool, Limited, Shard,
//     chunked dispatch, typed panics) and its enginetest cross-engine
//     equivalence suite with the test-only Chaos and shard-union
//     engines;
//   - internal/figures — the figure registry shared by oscbench and
//     oscserve;
//   - internal/serve — the HTTP simulation service behind
//     cmd/oscserve;
//   - internal/core — the optical SC architecture: transmission model
//     (Eqs. 5–7), SNR/BER (Eqs. 8–9), MRR-first and MZI-first design
//     methods, the pulsed-pump energy model and a reconfigurable
//     multi-order variant;
//   - internal/transient — time-domain simulation with detector
//     noise (the paper's future-work item ii);
//   - internal/dse — regeneration of every evaluation figure;
//   - internal/image — the gamma-correction application workload;
//   - internal/lint — the repo-convention static analyzers behind
//     cmd/osclint and CI's osclint job.
//
// The reproduction disciplines above — derived seeds instead of wall
// clocks, sorted map iteration before rendering, engine entry points
// registered in the cross-engine enginetest suite, propagated errors,
// allocation-free worker bodies, no test-only code in production
// packages —
// are machine-enforced: `make lint` (cmd/osclint, stdlib-only go/ast +
// go/types) fails CI on any unsuppressed violation, and intentional
// exceptions carry //osclint:ignore annotations with reasons.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// the per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The benchmarks in bench_test.go regenerate one figure or
// in-text claim each.
package repro
