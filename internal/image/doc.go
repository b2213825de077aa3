// Package image provides the error-tolerant image-processing
// applications the paper motivates stochastic computing with (§V.C):
// a minimal grayscale image type with PGM I/O (ReadPGM sizes its pixel
// buffer from the bytes it reads, never from the header, so it is safe
// on untrusted uploads), synthetic test-image generators, and the two canonical SC workloads — gamma correction
// and Robert's-cross edge detection — each computed exactly and
// stochastically, with PSNR against the exact result as the quality
// metric.
//
// Gamma correction maps gray levels to probabilities as v/255 and
// evaluates a degree-6 Bernstein approximation of x^gamma once per
// distinct level as one 256-item batch dispatched on the caller's
// evaluation engine under the caller's context (GammaReSC and
// GammaOptical, each taking (ctx, e)), applying the result as a lookup
// table. That table is a pure function of its recipe — batch
// randomness is (seed, level)-derived — so video-style workloads
// amortize it across frames: GammaLUTCache memoizes the coefficient
// fit, the circuit solve and the quantized optical LUT per (gamma,
// degree, spacing, streamLen, seed), building a missing table on the
// caller's engine (OpticalLUT) and keeping only tables whose build
// succeeded, at most 256 recipes, oldest evicted first. GammaDesign
// resolves a recipe's circuit in microseconds, so a server can reject
// an infeasible degree and spacing before it queues a build.
// GammaVideoCtx corrects a whole frame batch through one
// cached table, building it and fanning the per-frame LUT
// applications over the same engine under the same context.
// Quickstart:
//
//	var cache image.GammaLUTCache
//	out, err := image.GammaVideoCtx(ctx, engine.WordParallel, frames, 0.45, 6, 0.3, 1024, 9, &cache)
//
// Edge detection has no LUT shortcut — every pixel window needs its
// own correlated streams — so RobertsCrossSCOn is a packed tiled
// engine: row bands fan out over the caller's evaluation engine, and
// each worker streams its pixels through word-level plane kernels
// (stochastic.FillAbsDiffPlane, stochastic.MuxPlanes) on per-worker
// scratch, with flat diagonal pairs eliding their RNG draws entirely.
// Per-pixel seeds derive from the pixel index via
// stochastic.DeriveSeed, so the output is bit-identical to an
// engine.Serial run on any engine or core count. Quickstart:
//
//	src := image.Checkerboard(64, 64, 8, 30, 220)
//	sc, err := image.RobertsCrossSCOn(engine.WordParallel, src, 4096, 7) // packed tiled engine
//	psnr := image.PSNR(image.RobertsCrossExact(src), sc)
package image
