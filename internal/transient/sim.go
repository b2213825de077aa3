package transient

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optics"
	"repro/internal/stochastic"
)

// Simulator runs the optical SC unit bit slot by bit slot with
// additive Gaussian detector noise.
type Simulator struct {
	Unit *core.Unit
	// SigmaMW is the received-power noise standard deviation,
	// i_n/R expressed in mW (see package doc).
	SigmaMW float64

	// seed is the base seed the batch evaluators derive per-trial
	// randomness from; the serial path's noise generator is seeded
	// from it too.
	seed  uint64
	noise *Gaussian
}

// NewSimulator wraps a unit, deriving the noise level from the
// circuit's photodetector.
func NewSimulator(u *core.Unit, seed uint64) *Simulator {
	det := u.Circuit.P.Detector
	sigma := det.NoiseCurrentA / det.ResponsivityAPerW * 1e3 // A/(A/W) = W -> mW
	return &Simulator{
		Unit:    u,
		SigmaMW: sigma,
		seed:    seed,
		noise:   NewGaussian(stochastic.NewSplitMix64(seed)),
	}
}

// Step runs one noisy clock cycle at input probability x.
func (s *Simulator) Step(x float64) core.StepResult {
	return s.Unit.Step(x, s.noise.NextScaled(s.SigmaMW))
}

// Evaluate runs `length` noisy cycles bit-serially and de-randomizes
// the output. It is the oracle for EvaluateWords; a non-positive
// length is an error (an empty bitstream has no defined value).
func (s *Simulator) Evaluate(x float64, length int) (float64, *stochastic.Bitstream, error) {
	if length <= 0 {
		return 0, nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	out := stochastic.NewBitstream(length)
	for t := 0; t < length; t++ {
		out.Set(t, s.Step(x).Bit)
	}
	return out.Value(), out, nil
}

// EvaluateWords is Evaluate through the word-parallel noisy datapath:
// SNG words, the carry-save weight tree, power-table lookups and
// block Gaussian noise (Gaussian.FillScaled), 64 cycles per inner
// iteration. It advances the unit's generators and the simulator's
// noise stream exactly as Evaluate does and emits an identical
// bitstream.
func (s *Simulator) EvaluateWords(x float64, length int) (float64, *stochastic.Bitstream, error) {
	if length <= 0 {
		return 0, nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	out, err := s.Unit.EvaluateNoisy(x, length, func(dst []float64) {
		s.noise.FillScaled(dst, s.SigmaMW)
	})
	if err != nil {
		return 0, nil, err
	}
	return out.Value(), out, nil
}

// noiseSalt separates the per-trial noise seed stream from the
// per-trial SNG seed stream in trialSeeds.
const noiseSalt = 0x9D5C0F6B42A1E37D

// trialSeeds derives batch trial i's unit-generator seed and noise
// seed from the simulator's base seed, via stochastic.DeriveSeed on
// two salted streams. Trial i's randomness depends on (base, i) only,
// which is what makes batch results scheduling-independent.
func trialSeeds(base uint64, i int) (unitSeed, noiseSeed uint64) {
	return stochastic.DeriveSeed(base, i), stochastic.DeriveSeed(base^noiseSalt, i)
}

// EvaluateBatch evaluates every input with a fresh `length`-bit noisy
// stream, one trial per work item dispatched on e under ctx. Trial i
// runs with SNGs and a Gaussian noise stream seeded from the
// simulator's seed and i only (trialSeeds), so the result is
// bit-identical on every conforming engine and any core count — it
// matches a serial walk of core.NewUnit(..., unitSeed) steps fed with
// the trial's own noise stream. The simulator's shared state (unit
// tables, SigmaMW, seed) is only read: EvaluateBatch does not advance
// the serial noise stream and may itself be called concurrently. A
// non-positive length or a nil engine is an error, and a fired ctx (or
// a panicking trial) returns a *engine.Partial instead of values.
func (s *Simulator) EvaluateBatch(ctx context.Context, e engine.Engine, xs []float64, length int) ([]float64, error) {
	if length <= 0 {
		return nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	sigma := s.SigmaMW
	out := make([]float64, len(xs))
	errs := make([]error, len(xs))
	if err := engine.RunCtx(ctx, e, len(xs), nil, func(i int) {
		unitSeed, noiseSeed := trialSeeds(s.seed, i)
		g := NewGaussian(stochastic.NewSplitMix64(noiseSeed))
		v, err := s.Unit.EvaluateNoisySeeded(unitSeed, xs[i], length, func(dst []float64) {
			g.FillScaled(dst, sigma)
		})
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = v
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// worstCasePair returns the worst channel's Eq. (8) one/zero pattern
// levels and the midpoint decision threshold shared by the measured
// and analytic worst-case BER.
func (s *Simulator) worstCasePair() (oneLevel, zeroLevel, threshold float64) {
	c := s.Unit.Circuit
	n := c.P.Order
	_, worst := c.WorstCaseDelta()

	onePattern := make([]int, n+1)
	onePattern[worst] = 1
	zeroPattern := make([]int, n+1)
	for i := range zeroPattern {
		if i != worst {
			zeroPattern[i] = 1
		}
	}
	oneLevel = c.ReceivedPowerMW(worst, onePattern)
	zeroLevel = c.ReceivedPowerMW(worst, zeroPattern)
	// The decision threshold for this channel pair sits midway
	// between the pair's own levels, as the analytic SNR assumes.
	threshold = (oneLevel + zeroLevel) / 2
	return oneLevel, zeroLevel, threshold
}

// MeasureWorstCaseBER transmits the worst-case signal/crosstalk
// patterns of Eq. (8) and returns the observed bit-error rate. Even
// slots carry the worst channel's '1' pattern (only z_worst set); odd
// slots carry its '0' pattern (every other coefficient set,
// maximizing crosstalk). A non-positive slot count is an error, and
// an odd count is rounded up so the two patterns are transmitted
// equally often — an unbalanced split would bias the measurement
// toward one pattern's error rate. The slots are decided 64 at a time
// by Gaussian.ThresholdWord, which draws the noise stream exactly as
// the serial per-slot draw would and returns the same decisions as
// adding that noise to each level, so the count is bit-identical to
// the per-slot simulation. The measurement converges to the analytical
// Eq. (9) BER of the circuit.
func (s *Simulator) MeasureWorstCaseBER(slots int) (float64, error) {
	if slots <= 0 {
		return 0, fmt.Errorf("transient: BER measurement needs bits >= 1, got %d", slots)
	}
	if slots%2 != 0 {
		slots++ // balance the even/odd pattern split
	}
	oneLevel, zeroLevel, threshold := s.worstCasePair()
	sigma := s.SigmaMW

	// Every block starts on an even slot, so one alternating block of
	// levels and screens serves them all.
	var levels [64]float64
	var screens [64]stochastic.Screen
	oneScreen := stochastic.NewScreen(oneLevel, threshold, sigma)
	zeroScreen := stochastic.NewScreen(zeroLevel, threshold, sigma)
	for k := range levels {
		levels[k], screens[k] = oneLevel, oneScreen
		if k%2 != 0 {
			levels[k], screens[k] = zeroLevel, zeroScreen
		}
	}
	const sent = 0x5555555555555555 // the '1' pattern's slots

	errors := 0
	for t := 0; t < slots; t += len(levels) {
		nb := min(len(levels), slots-t)
		got := s.noise.ThresholdWord(levels[:nb], screens[:nb], threshold, sigma)
		valid := ^uint64(0) >> (64 - nb)
		errors += bits.OnesCount64(^got&sent&valid) + bits.OnesCount64(got&^sent&valid)
	}
	return float64(errors) / float64(slots), nil
}

// AnalyticWorstCaseBER returns the Eq. (9) prediction for the same
// worst-case pattern pair measured by MeasureWorstCaseBER: the level
// separation over the noise sigma, halved for the midpoint threshold.
func (s *Simulator) AnalyticWorstCaseBER() float64 {
	oneLevel, zeroLevel, _ := s.worstCasePair()
	return optics.BERFromSNR((oneLevel - zeroLevel) / s.SigmaMW)
}

// AccuracyPoint is one sample of the throughput–accuracy trade-off.
type AccuracyPoint struct {
	// StreamLen is the stochastic stream length (bits per result).
	StreamLen int
	// RMSE is the root-mean-square error of the de-randomized result
	// against the analytic polynomial value, over `trials` runs.
	RMSE float64
	// ThroughputResultsPerSec is the resulting output rate at the
	// circuit's bit rate.
	ThroughputResultsPerSec float64
}

// accuracySalt separates the per-trial seed streams of
// AccuracyVsLength from the EvaluateBatch trial streams derived from
// the same simulator seed.
const accuracySalt = 0x3C79AC492BA7B653

// accuracyLengths filters the usable stream lengths, preserving order
// — non-positive entries are skipped (they have no defined value).
// Both AccuracyVsLength paths index their per-trial seeds against this
// filtered list, so skipped entries do not shift the seed streams.
func accuracyLengths(lengths []int) []int {
	out := make([]int, 0, len(lengths))
	for _, l := range lengths {
		if l >= 1 {
			out = append(out, l)
		}
	}
	return out
}

// accuracyReduce folds per-trial squared errors (flat, trial-major
// within each length) into the RMSE points, summing in trial order —
// the shared reduction that keeps the fanned-out and serial paths
// bit-identical.
func (s *Simulator) accuracyReduce(valid []int, trials int, sq []float64) []AccuracyPoint {
	out := make([]AccuracyPoint, len(valid))
	for li, l := range valid {
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			sum += sq[li*trials+tr]
		}
		out[li] = AccuracyPoint{
			StreamLen:               l,
			RMSE:                    math.Sqrt(sum / float64(trials)),
			ThroughputResultsPerSec: s.Unit.Circuit.P.ThroughputBitsPerSec(l),
		}
	}
	return out
}

// AccuracyVsLengthCtx measures the end-to-end RMSE at input x for
// each stream length, averaging over trials runs — the §V.B trade-off:
// transmission errors and stochastic fluctuation both shrink as
// streams lengthen, at proportional cost in throughput.
//
// The (length, trial) pairs are independent work items dispatched on
// the given engine like NoiseStudy's combinations: trial i runs the
// word-parallel noisy path with SNG and noise seeds derived from the
// simulator's seed and i alone (trialSeeds over a salted stream), so
// the study is bit-identical on every conforming engine, deterministic
// on any core count, and identical across repeated calls — it does not
// advance the simulator's generators or its serial noise stream. A nil
// engine is an error. If several trials fail, the error of the lowest
// failing index is returned (a deterministic choice). A fired ctx
// stops the trial fan-out at a trial boundary and surfaces a
// *engine.Partial (wrapping the context error, or the
// *engine.PanicError of a faulting trial) instead of points.
func (s *Simulator) AccuracyVsLengthCtx(ctx context.Context, e engine.Engine, x float64, lengths []int, trials int) ([]AccuracyPoint, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if trials < 1 {
		trials = 1
	}
	valid := accuracyLengths(lengths)
	want := s.Unit.Poly.Eval(x)
	sigma := s.SigmaMW
	sq := make([]float64, len(valid)*trials)
	errs := make([]error, len(sq))
	if err := engine.RunCtx(ctx, e, len(sq), nil, func(i int) {
		unitSeed, noiseSeed := trialSeeds(s.seed^accuracySalt, i)
		g := NewGaussian(stochastic.NewSplitMix64(noiseSeed))
		got, err := s.Unit.EvaluateNoisySeeded(unitSeed, x, valid[i/trials], func(dst []float64) {
			g.FillScaled(dst, sigma)
		})
		if err != nil {
			errs[i] = err
			return
		}
		d := got - want
		sq[i] = d * d
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s.accuracyReduce(valid, trials, sq), nil
}

// String implements fmt.Stringer.
func (p AccuracyPoint) String() string {
	return fmt.Sprintf("L=%d: RMSE %.4f @ %.3g results/s", p.StreamLen, p.RMSE, p.ThroughputResultsPerSec)
}
