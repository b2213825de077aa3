// Package serve is the crash-safe simulation service: the repo's
// figure registry, BER/yield analyses and stochastic image operators
// behind a small JSON-over-HTTP API with backpressure, per-request
// deadlines, panic isolation and graceful drain.
//
// # Endpoints
//
//	GET  /healthz            liveness + queue/cache/engine stats
//	GET  /readyz             200 when admitting, 503 {"reason":"draining"} during drain
//	GET  /v1/figures         figure registry listing (sorted by key)
//	POST /v1/figures/{key}   render one figure; body {grid, sweep, samples, timeout_ms}
//	POST /v1/ber             BER waterfall; body {probe_mw[] | target_ber[], bits, seed, timeout_ms}
//	POST /v1/yield           process-variation yield study (checkpointable,
//	                         shardable); body {sigmas_nm[], samples, seed,
//	                         target_ber, timeout_ms, shard, of}
//	POST /v1/image/gamma     stochastic gamma correction; body {source, gamma, degree,
//	                         spacing_nm, stream_len, seed, format, timeout_ms}
//	POST /v1/image/edge      stochastic Roberts-cross edge detection; same body minus
//	                         the gamma-specific fields
//
// Every POST body is optional JSON: an empty body runs the endpoint's
// documented defaults, unknown fields are rejected. Image sources are
// either a synthetic generator ({"synth":"gradient|radial|checkerboard",
// "width","height",...}) or an uploaded binary PGM ({"pgm_base64":...},
// parsed with its allocation bounded by the upload, so a header that
// claims more pixels than it carries is a 400, never an allocation);
// image responses are JSON (base64 PGM + PSNR/MAE vs the exact
// operator) or raw PGM when format is "pgm". A result identical to the
// exact operator has infinite PSNR, which JSON has no number for:
// psnr_db is then null (and mae 0); finite values encode unchanged.
//
// # Error shape
//
// Every non-2xx response is an ErrorBody: {"error","kind"} plus
// kind-specific fields. Kinds and their statuses:
//
//	bad_request (400)  malformed or out-of-range request
//	not_found   (404)  unknown figure key; the body lists valid keys
//	queue_full  (503)  admission control rejected the job (Retry-After: 1)
//	draining    (503)  server shutting down or job cancelled by drain
//	                   (Retry-After: 5)
//	deadline    (504)  request deadline expired mid-sweep; n/completed
//	                   carry engine.Partial attribution — how many items
//	                   finished before the sweep stopped at an item boundary
//	panic       (500)  a work item panicked; index names the faulting item;
//	                   the worker survives and the server keeps serving
//	internal    (500)  anything else
//
// # Backpressure and deadlines
//
// Compute requests go through one path: a content-addressed cache
// lookup, then admission onto a bounded queue (Workers running,
// QueueDepth waiting — never an unbounded goroutine per request), then
// execution on a shared engine.Limited so concurrent jobs cannot
// oversubscribe the machine. A full queue answers 503 queue_full
// immediately with Retry-After. The per-request deadline (timeout_ms,
// capped by Config.MaxTimeout, defaulting to Config.DefaultTimeout) is
// threaded into the ctx-first sweep entry points, which stop at
// work-item boundaries and report engine.Partial progress in the 504
// body. Every figure that dispatches work honours it; only
// /v1/image/edge, whose kernel takes no context, runs to completion.
//
// # Idempotency and retries
//
// Results are cached under the fail-closed content address
// (figure, config, seed, N) hashed by dse.CheckpointKey — the same
// scheme checkpoints key on. The determinism contract (identical
// bytes on every engine at every worker count) makes every POST
// idempotent: a retry with the same body either hits the cache
// (X-Cache: hit, byte-identical body) or recomputes the same bytes.
// 503s are always safe to retry after Retry-After seconds.
//
// # Sharding and merge
//
// A yield study splits across servers with no coordination: POST the
// same body to each with {"shard": k, "of": n} and server k computes
// only the dies with index%n == k (engine.Shard over the shared
// engine), answering a shard-attributed body — {seed, target_ber,
// shard, of, n, completed, dies:[{index, outcome}]} — instead of the
// folded per-sigma points. Because every die is a pure function of
// (key, index), the union of the n responses reassembles the
// unsharded study bit-identically; the shard tests fold them back and
// diff. Shard responses cache independently (the shard spec extends
// the content address), and with Config.CheckpointDir set each shard
// persists the same shard-tagged snapshot oscbench's -shard flag
// writes (yield-<hash>.shardKofN.json), mergeable offline with
// cmd/oscmerge. Malformed specs (shard without of, shard out of
// [0,of), of outside 1..64) are 400 bad_request, never a silently
// unsharded run.
//
// # Shutdown
//
// Drain stops admissions (readyz flips to 503, new jobs get 503
// draining), waits for accepted jobs, and — once the caller's hard
// context fires — cancels running jobs so ctx-aware sweeps stop at an
// item boundary. When Config.CheckpointDir is set, /v1/yield runs
// under a dse.Checkpointer: completed dies are snapshotted atomically,
// so re-POSTing the same study to a restarted server resumes from the
// snapshot and returns a body byte-identical to an uninterrupted run.
package serve
