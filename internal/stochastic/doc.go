// Package stochastic implements the stochastic-computing (SC)
// substrate of the reproduction: bit-streams interpreted as
// probabilities, stochastic number generators (SNGs), the scaled
// adder, Bernstein polynomials, and the electronic ReSC unit of
// Qian et al. that the paper's Fig. 1 summarizes and that the optical
// architecture (internal/core) transposes to the photonic domain.
//
// # Representation
//
// A stochastic bit-stream of length L encodes the value v ∈ [0, 1] as
// a sequence with ⌈vL⌋ ones in random positions; the observed
// fraction of ones is an unbiased estimator of v with variance
// v(1-v)/L. Bitstream stores bits packed 64 per word.
//
// # Generators
//
// SNGs compare a pseudo-random number against the target probability
// (the comparator of the paper's Fig. 1a). SplitMix64 is the only
// source: SNG, the plane kernels, ReSC and every other production path
// take a *SplitMix64, whose draws behave as the i.i.d. uniforms the
// binomial error analysis of a stream assumes. A maximal-length Galois
// LFSR (the classic hardware SNG) and a chaotic-map source modelled on
// the chaotic-laser random-bit generation the paper cites as future
// work [20] live in the package's tests, where a one-draw-per-bit
// comparator over any source drives their accuracy tests.
//
// # Gaussian noise
//
// Gaussian is the Box–Muller sampler behind every noisy simulation
// (detector noise in internal/transient, process variation in
// internal/core). It draws from a concrete *SplitMix64, so the uniform
// draws inline, and its per-sample (Next) and block (Fill, FillScaled)
// forms produce bit-identical sequences, spare deviate included.
//
// Where the noise only feeds threshold decisions, ThresholdWord
// returns 64 of them as one word, bit-identical to FillScaled plus
// `level+noise > thr` and consuming the source identically. Each slot
// carries a Screen from NewScreen, and each Box–Muller pair meets two
// tests before any transcendental:
//
//   - The radius screen bounds both deviates by r = √(−2 ln u1): when
//     σ·r is safely below both slots' distance to the threshold, both
//     decisions equal level > thr. Since r < R ⇔ u1 > exp(−R²/2), it is
//     one integer compare of the 53-bit u1 draw against the Screen's
//     cut, and a screened pair skips log, sqrt and sincos.
//   - The angle–radius bracket takes the pairs the cut misses. It
//     bounds r² from a 256-entry table of ln over the binade and
//     leading mantissa bits of u1, and cos²θ and sin²θ, with their
//     signs, from a 1024-entry table over the top bits of u2. A slot
//     keeps level > thr when the bound on z² is below its keep bound,
//     or when the noise certainly points away from thr; it flips when
//     the bound is above its flip bound with the noise certainly
//     pointing toward thr. It runs without a branch per slot.
//
// Only a pair with a slot the bracket cannot settle — z within a table
// step of the distance to the threshold — runs FillScaled's Log, Sqrt
// and Sincos unchanged: under 0.3% of pairs at the BER waterfall's
// 1e-1 point. The cut shrinks the distance by 2⁻⁴⁹ of the operands'
// magnitude and scales R by 1 − 2⁻³⁰; the bracket widens every table
// entry by 2⁻⁴⁰ and its keep and flip bounds by 2⁻³⁰. That covers the
// rounding of Log, Sqrt, Exp, Sincos, 2π·u2, the noise multiplies and
// the final add; NewScreen and screenCut document the bounds term by
// term. Any input they cannot bound (non-finite, σ ≤ 0 or subnormal,
// radius below 2⁻⁹·⁵) gets a cut no draw exceeds and no bracket,
// leaving the slot to the full arithmetic.
//
// # ReSC
//
// ReSC evaluates a Bernstein polynomial B(x) = Σ b_i B_{i,n}(x) by
// feeding n independent stochastic streams of x into an adder whose
// popcount selects one of n+1 coefficient streams through a
// multiplexer (paper Fig. 1a). The de-randomizer counts ones at the
// output. This electronic unit is the baseline the optical circuit is
// compared against.
//
// Step and Evaluate clock every coefficient SNG each cycle, as the
// hardware does; EvaluateWords, the packed oracle in the package's
// tests (packed_words_test.go), does the same 64 cycles per word. When
// the sources are fresh SplitMix64 generators, only the selected
// coefficient's draw matters. SplitMix64 is counter-based: draw t of a
// generator seeded s is mix(s + (t+1)·γ). ReSCOnesSplitMix therefore
// builds the data words and carry-save planes as EvaluateWords does,
// then, for each weight k, computes coefficient k's draws only at the
// clocks in PlaneEquals(planes, k). It returns the same ones count
// from n+1 draws per clock instead of 2n+1. EvaluateBatch and the
// optical unit's mux-form batch path (internal/core) run on it.
package stochastic
