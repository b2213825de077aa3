// Package dse (design-space exploration) regenerates every evaluated
// figure of the paper as structured data plus text-table renderings:
//
//   - Fig. 5(a)/(b): transmission spectra of the modulator rings and
//     filter with per-channel totals for the two worked examples;
//   - Fig. 5(c): received optical power for every (x, z) combination,
//     grouped into the '0' and '1' de-randomizer bands;
//   - Fig. 6(a): minimum probe laser power over an (IL, ER) grid at
//     fixed pump power and BER target (MZI-first method);
//   - Fig. 6(b): minimum probe power versus BER target;
//   - Fig. 6(c): minimum probe power for four published MZI devices;
//   - Fig. 7(a): laser energy per bit versus wavelength spacing, per
//     polynomial order, with the pump/probe crossover and optimum;
//   - Fig. 7(b): total energy versus polynomial order at 1 nm and at
//     the optimal spacing, with the headline energy saving.
//
// The functions return plain structs so tests can assert on the data,
// and each has a Render* companion writing the human-readable table
// that cmd/oscbench prints.
//
// # Parallel sweep engine
//
// Every study above runs on the two generic sweep runners in sweep.go
// — SweepCtx for a list of points and GridCtx for a row-major grid —
// which dispatch independent points on the caller's evaluation engine
// under the caller's context and return results in index order.
// Randomness, where a study needs it, derives from the base seed and
// the point index alone (stochastic.DeriveSeed at the call site), so
// every sweep is bit-identical on every engine and at any GOMAXPROCS.
// A study dispatches on its engine at one level only; fan-outs inside
// a point run on engine.Serial (NoiseStudy runs each point's noisy
// trial batches there). StreamLengthSweep and EdgeStudy, whose few
// stream lengths are dominated by the longest, instead loop the
// lengths in order and dispatch each length's batch evaluators and
// image kernels on the engine.
// Quickstart:
//
//	pts, err := dse.Fig6A(ctx, engine.WordParallel, 12, 12) // 144 MZI-first solves
//	rows, err := dse.SweepCtx(ctx, e, n, func(i int) (Row, error) {
//	    seed := stochastic.DeriveSeed(base, i) // Monte-Carlo point with its own seed
//	    ...
//	})
package dse
