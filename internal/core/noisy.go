package core

import (
	"fmt"

	"repro/internal/stochastic"
)

// This file holds the noise-aware evaluators. A noisy OOK decision
// depends on the per-cycle noise sample, but the received power is
// still a pure function of (weight, z-mask), so the noisy paths run
// the same packed kernel as the noiseless ones (evalPacked in
// batch.go): SNG words, the carry-save weight tree, a power-table
// lookup per cycle and one threshold decision per bit. The noise
// reaches the kernel in one of two forms, both consumed in cycle order
// so the packed path emits the bitstream of the serial Step(x, noiseMW)
// loop fed from the same sources:
//
//   - EvaluateNoisy takes a caller-supplied block filler and adds its
//     samples to the levels before thresholding, which keeps the
//     distribution the caller's choice (internal/transient wires it to
//     stochastic.Gaussian.FillScaled);
//   - EvaluateNoisySeeded takes a *stochastic.Gaussian and the unit's
//     NoiseScreens for one sigma, and decides each word with
//     stochastic.Gaussian.ThresholdWord, which returns the decisions
//     FillScaled noise would give without computing the noise a
//     per-cell screen already settles.

// EvaluateNoisy runs `length` cycles at input x with additive
// received-power noise and returns the raw output stream. fill is
// called with successive blocks of up to 64 slots and must write one
// noise sample (in mW) per slot, consuming its source in cycle order;
// each sample is added to the received power before thresholding,
// exactly as Step's noiseMW argument is. It advances the unit's
// generators as Evaluate does, so it emits the bitstream a Step loop
// fed the same noise samples would.
func (u *Unit) EvaluateNoisy(x float64, length int, fill func(noiseMW []float64)) (*stochastic.Bitstream, error) {
	if length <= 0 {
		return nil, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if fill == nil {
		return nil, fmt.Errorf("core: EvaluateNoisy needs a noise filler")
	}
	out := stochastic.NewBitstream(length)
	u.evalPacked(u.dataSNG, u.coefSNG, x, length, packedNoise{fill: fill}, out)
	return out, nil
}

// NoiseScreens binds one received-power noise sigma to one
// stochastic.Screen per cell of a unit's power table, so that a screen
// is never paired with another sigma. Build it with Unit.Screens.
type NoiseScreens struct {
	unit    *Unit
	sigmaMW float64
	cells   []stochastic.Screen // indexed like Circuit.powerCells
}

// Screens returns the unit's noise screens for Gaussian received-power
// noise of standard deviation sigmaMW: cell weight<<(n+1) | zmask holds
// stochastic.NewScreen(pow[weight][zmask], ThresholdMW(), sigmaMW).
// Build them once per study, outside any fan-out; they are immutable
// and shared by concurrent EvaluateNoisySeeded calls. They take
// (n+1)·2^(n+1) screens of 32 B, four times the power table: 768 B at
// the paper's order 2, 28 KB at order 6 and about 71 MB at MaxOrder.
func (u *Unit) Screens(sigmaMW float64) *NoiseScreens {
	pow := u.Circuit.powerCells()
	cells := make([]stochastic.Screen, len(pow))
	for i, level := range pow {
		cells[i] = stochastic.NewScreen(level, u.thresholdMW, sigmaMW)
	}
	return &NoiseScreens{unit: u, sigmaMW: sigmaMW, cells: cells}
}

// EvaluateNoisySeeded evaluates one noisy input with fresh generators
// derived from seed only — the reproducible per-trial unit of work
// behind transient batch evaluation. Each cycle's received power plus
// Gaussian noise of the screens' sigma, drawn from g in cycle order, is
// thresholded as Step thresholds it; g advances exactly as FillScaled
// over the whole stream would advance it. The shared state it reads
// (power table, threshold, screens) is immutable, so it may be called
// concurrently with distinct Gaussians; reproducibility additionally
// requires g to be seeded from the trial alone. A non-positive length,
// screens not built by u.Screens, or a nil g is an error.
func (u *Unit) EvaluateNoisySeeded(seed uint64, x float64, length int, screens *NoiseScreens, g *stochastic.Gaussian) (float64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if screens == nil || screens.unit != u {
		return 0, fmt.Errorf("core: EvaluateNoisySeeded needs this unit's noise screens")
	}
	if g == nil {
		return 0, fmt.Errorf("core: EvaluateNoisySeeded needs a Gaussian noise source")
	}
	data, coef := seededSNGs(u.Circuit.P.Order, seed)
	return float64(u.evalPacked(data, coef, x, length, packedNoise{screens: screens, g: g}, nil)) / float64(length), nil
}
