// Package transient implements the time-domain simulation the paper
// lists as future work (§V.D item ii): clocked bit-slot simulation of
// the optical stochastic-computing unit with additive Gaussian
// detector noise, pulse-gated detection for the 26 ps pump laser, and
// measurement of the resulting bit-error rate and end-to-end
// computational accuracy.
//
// The noise model follows the paper's Eq. (8) exactly: the detector's
// internal noise current i_n against responsivity R corresponds to a
// received-power standard deviation of i_n/R, so the measured BER of
// a simulation run converges to the analytical Eq. (9) prediction
// when the worst-case signal/crosstalk patterns are transmitted.
// That agreement is the package's main validation test.
//
// # Batched noisy evaluation
//
// Every noisy evaluator comes in two equivalent forms. The bit-serial
// Simulator.Step/Evaluate path, kept in the package's tests
// (serial_test.go), advances one clock per call and serves as the
// oracle. The word-parallel path (Simulator.EvaluateWords)
// simulates 64 clocks per machine word — SNG words, the carry-save
// weight tree, received-power table lookups and block Gaussian noise
// (stochastic.Gaussian.FillScaled, a Box–Muller pair at a time) — and
// emits bit-identical streams. Monte-Carlo studies go through
// Simulator.EvaluateBatch, which dispatches independent trials on the
// caller's engine under the caller's context with per-trial seeds
// derived by stochastic.DeriveSeed, so results are reproducible on any
// engine and core count. A trial needs only its decisions, so
// EvaluateBatch and AccuracyVsLengthCtx build the unit's
// core.NoiseScreens once per call, before the fan-out and from the
// SigmaMW of that moment, and each trial decides its words with
// stochastic.Gaussian.ThresholdWord (core.Unit.EvaluateNoisySeeded):
// the same bits as adding the trial's FillScaled noise, without the
// Box–Muller arithmetic for pairs a per-cell screen settles. Quickstart:
//
//	u, _ := core.NewUnit(circuit, poly, 1)
//	sim := transient.NewSimulator(u, 2)
//	val, _, err := sim.EvaluateWords(0.5, 4096) // one noisy stream
//	xs := []float64{0.5, 0.5, 0.5, 0.5}         // 4 independent trials
//	vals, err := sim.EvaluateBatch(ctx, engine.WordParallel, xs, 4096) // fanned over all cores
//	ber, err := sim.MeasureWorstCaseBER(200_000)
//
// MeasureWorstCaseBER, behind /v1/ber, the waterfall figure and
// internal/dse.NoiseStudy's BER, only needs each slot's decision, not
// its analog value. It sends one alternating one/zero level block per
// 64 slots through stochastic.Gaussian.ThresholdWord and counts errors
// with two masked popcounts, with the two levels' stochastic.Screen
// values built once per measurement. The kernel skips the Box–Muller
// transcendentals for every pair whose radius cannot cross the
// threshold, and settles almost every other pair from table brackets
// of the radius and the angle; only a pair whose noise lands within a
// table step of the threshold runs the exact Log, Sqrt and Sincos. It
// is bit-identical to adding FillScaled noise to each level, so the
// measured BER and the noise stream left behind are those of the
// per-slot simulation.
//
// On top of the bit-level simulator the package provides the
// throughput–accuracy trade-off study (§V.B): longer stochastic
// streams average transmission errors away, letting a designer trade
// probe laser power against stream length; internal/dse.NoiseStudy
// sweeps that trade-off over probe power and noise sigma.
//
// # Word-parallel measurements
//
// Every measurement on top of the simulator, like EvaluateBatch, has
// one entry point that takes its engine (and, when it can be
// interrupted, its context) from the caller. Randomness derives from item indices, so each is
// bit-identical across engines on any core count, pinned by this
// package's internal/engine/enginetest suite; oracles run it on
// engine.Serial.
//
//   - TraceCtx — the pulse-gated waveform written over
//     core.Unit.Cycles (64 decoded cycles per SNG word draw) with
//     per-slot block noise fills.
//   - MeasureEyeCtx — decision-instant statistics over the same
//     decoded-cycle visitor.
//   - BERWaterfallCtx — probe-power points fanned over the engine,
//     each rebuilding its circuit with per-point derived unit and
//     simulator seeds.
//   - AccuracyVsLengthCtx — (length, trial) pairs fanned over the
//     engine with per-trial derived seeds; it does not advance the
//     simulator's generators, so repeated calls return identical
//     points.
//
// The §V.D synchronization claim, that a detector sampling outside
// the 26 ps pump pulse sees the relaxed filter and fails, is checked
// by a serial offset sweep in sync_test.go; no figure renders it yet.
package transient
