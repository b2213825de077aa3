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
// lookup and one add-and-compare per bit. The noise itself arrives
// through a caller-supplied block filler (internal/transient wires it
// to stochastic.Gaussian.FillScaled), which keeps core free of any distribution
// choice while consuming the noise source in cycle order — so the
// packed path emits bitstreams identical to the serial Step(x,
// noiseMW) loop fed from the same sources.

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
	return u.evalPacked(u.dataSNG, u.coefSNG, x, length, fill), nil
}

// EvaluateNoisySeeded evaluates one noisy input with fresh generators
// derived from seed only — the reproducible per-trial unit of work
// behind transient batch evaluation. The shared state it reads (power
// table, threshold) is immutable, so it may be called concurrently;
// reproducibility additionally requires fill to be derived from seed
// alone.
func (u *Unit) EvaluateNoisySeeded(seed uint64, x float64, length int, fill func(noiseMW []float64)) (float64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if fill == nil {
		return 0, fmt.Errorf("core: EvaluateNoisySeeded needs a noise filler")
	}
	data, coef := seededSNGs(u.Circuit.P.Order, seed)
	return u.evalPacked(data, coef, x, length, fill).Value(), nil
}
