// Package engine is the pluggable evaluation-engine layer: a small
// interface over "run n independent, index-addressed work items" that
// every sweep, study and image batch in this repo dispatches through.
// Two engines are built in — Serial, the in-order reference
// implementation, and WordParallel, the internal/parallel worker pool
// the word-parallel migration runs on — and every entry point takes
// its engine (and, when it dispatches under cancellation, its context)
// from the caller:
//
//	pts, err := transient.BERWaterfallCtx(ctx, engine.WordParallel, base, powers, bits, seed)
//	ref, err := transient.BERWaterfallCtx(ctx, engine.Serial, base, powers, bits, seed) // the oracle
//
// A study dispatches on its engine at one level only. A sweep item
// that fans out again runs that inner fan-out on engine.Serial, so an
// item never waits for a slot of a Limited engine it already holds.
//
// # The determinism contract
//
// An Engine is a scheduler, not a randomness source. It implements one
// dispatch method, ForWorkerCtx(ctx, n, workers, fn), and any Engine —
// the built-ins, a future bipolar or nanocavity backend, a remote
// shard — must satisfy the contract that makes results
// engine-independent:
//
//   - Exactly once: on a nil error, ForWorkerCtx has called fn for
//     every index in [0, n) exactly once, and returns only after every
//     call has completed. No index may be skipped, duplicated, or left
//     in flight.
//   - Item-boundary cancellation and typed panics: once ctx fires the
//     engine stops handing out items and returns the context's error;
//     an item never runs partially and is never re-run. A panicking
//     item comes back as a *parallel.PanicError naming its index
//     instead of crashing the process.
//   - Index-derived randomness: which goroutine runs which index is
//     the engine's business, so work functions must derive any
//     randomness from the index alone — stochastic.DeriveSeed(base, i)
//     — never from worker identity, shared generators, or the clock.
//     (The detrand lint rule enforces this at the call sites.)
//   - Index-ordered aggregation: engines impose no execution order;
//     callers write results to out[i] and reduce in index order, so
//     floating-point sums fold identically under any scheduling.
//   - O(workers) scratch: the worker argument is in [0, workers) and
//     each concurrent goroutine owns a distinct worker index for the
//     duration of the call, so callers may address per-worker scratch
//     without locks. Workers(n) reports the pool size the engine will
//     use for n items, so scratch can be sized before the fan-out;
//     callers pass that same count back to ForWorkerCtx.
//
// The package functions are built on that one method: ForCtx for
// callers that need no worker identity, RunCtx for sweeps that report
// an interruption, and Chunked for cheap items. So there is exactly
// one dispatch primitive per engine to implement, wrap or instrument.
//
// Any implementation holding those properties produces results
// bit-identical to engine.Serial. That is not left to inspection: the
// generic enginetest.Run suite — one registration per package,
// covering every engine-accepting entry point — replays each path on
// every engine of enginetest.Engines() at GOMAXPROCS 1 and 4 against
// the Serial reference.
//
// Single-stream paths (transient.Simulator.TraceCtx, MeasureEyeCtx)
// consume one sequential noise stream and cannot fan out; they run
// their walk as a single work item, so every conforming engine emits
// the identical waveform and the suite still catches engines that
// violate exactly-once dispatch.
//
// Chunked batches cheap per-item work into contiguous index ranges
// (at most Workers ranges, each at least minChunk items) so paths
// whose items are a few microseconds — the OptimalSpacingCtx
// bracketing scan — pay per-chunk rather than per-item dispatch
// overhead. With one worker (or one chunk) it degrades to the pure
// serial walk.
//
// # Cancellation, checkpointing, admission and fault injection
//
// Long sweeps are interruptible without giving up the contract.
// RunCtx wraps an interruption in *Partial: the per-index Done bitmap
// and Completed count that tell a caller exactly which items finished
// — the unit of resumability dse.Checkpointer builds on (periodic
// durable snapshots, fail-closed key hashing, resume re-runs only the
// missing indices with bit-identical reassembly; oscbench -fig yield
// -checkpoint/-resume).
//
// Limited wraps an engine behind a slot semaphore shared by every
// dispatch through it: the admission cap oscserve puts in front of
// all of its jobs. Waiting for a slot also observes the context.
//
// Because "stops cleanly and resumes bit-identically" is a claim
// about failure paths, it is tested under injected faults.
// enginetest.Chaos wraps any inner engine and — deterministically,
// from a seed — drops-then-retries items, delays them, or panics at a
// chosen index, while still satisfying the exactly-once contract when
// configured recoverably (the "chaos" engine of enginetest.Engines()
// runs the full suite like any backend). enginetest.RunChaos replays
// every entry point under recoverable chaos (must match the Serial
// reference bit-for-bit) and under an injected panic (must surface a
// typed error or panic that names the fault — silently swallowing it
// fails the suite).
//
// # Sharding
//
// Index-derived randomness also makes sweeps distributable: because
// item i's result never depends on which process ran it, a sweep can
// split across machines by index alone. Shard{K, N, Inner} wraps any
// engine and dispatches only the indices shard K of N owns (i%N == K,
// or contiguous blocks with Contiguous), bit-identical to the full
// run on the owned subset. A shard deliberately breaks exactly-once
// over [0, n) — it is exactly-once over its slice — so it reports the
// unowned remainder through the normal Partial machinery with
// ErrShardRemainder as the cause and the Done bitmap equal to
// ownership; callers (dse.Checkpointer, oscbench -shard, /v1/yield's
// shard/of fields) treat that as "my share is complete" and assemble
// shards back into a full study with cmd/oscmerge. A malformed spec
// is an error from every dispatch, never a panic. The "sharded" engine
// of enginetest.Engines() is an enginetest.ShardUnion of three
// round-robin shards over WordParallel: the union restores
// exactly-once coverage, so it passes the full suite — gapped or
// overlapping unions are the teeth fixtures that prove the suite would
// catch a wrong split.
package engine
