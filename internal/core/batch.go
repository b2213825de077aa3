package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// This file is the word-parallel mirror of the packed ReSC engine in
// internal/stochastic for the end-to-end optical unit. The optical
// datapath's received power is a pure function of the data weight and
// the coefficient bit-vector, so 64 clock cycles collapse to: SNG
// words, a carry-save adder tree for the weight, a lookup in the
// circuit's (weight, z-mask) power table and one add-and-compare per
// bit against the calibrated OOK decision level. One kernel,
// evalPacked, serves the noiseless and the noisy evaluators; it emits
// bitstreams identical to the serial Step/Evaluate path.

// isMuxForm reports whether the power table pow, thresholded at thr,
// is in mux form: pow[w][z] > thr exactly when bit w of z is set, for
// every weight w and z-mask z, i.e. the output bit of a noiseless
// cycle is the coefficient bit its weight selects. A calibrated
// circuit with an open eye whose filter routes weight w to probe
// channel w is in this form.
func isMuxForm(pow [][]float64, thr float64) bool {
	for w, row := range pow {
		for z, p := range row {
			if (p > thr) != (z>>w&1 == 1) {
				return false
			}
		}
	}
	return true
}

// muxForm reports whether the unit's noiseless decisions are in mux
// form (isMuxForm on the circuit's power table and the unit's
// threshold), deciding it on first use.
func (u *Unit) muxForm() bool {
	u.muxOnce.Do(func() { u.mux = isMuxForm(u.Circuit.PowerTable(), u.thresholdMW) })
	return u.mux
}

// drawWord advances the generators one packed word of nbits cycles:
// data words accumulate into the carry-save planes (returned, as the
// tree may grow), coefficient words fill coefWords. The packed kernel
// and Cycles consume their sources through this one helper, which is
// what keeps them cycle-aligned with the serial Step path and with
// each other.
func (u *Unit) drawWord(data, coef []*stochastic.SNG, x float64, nbits int, planes []uint64, coefWords []uint64) []uint64 {
	planes = planes[:0]
	for i := range data {
		planes = stochastic.AddPlane(planes, data[i].NextWord(x, nbits))
	}
	for i := range coef {
		coefWords[i] = coef[i].NextWord(u.Poly.Coef[i], nbits)
	}
	return planes
}

// decodeCycles transposes the packed word state back to per-cycle
// integers: weights[t] the data-bit sum and zmasks[t] the coefficient
// bit-vector of cycle t — the shared decode between the packed kernel
// and Cycles.
func decodeCycles(planes, coefWords []uint64, nbits int, weights, zmasks *[64]int) {
	for t := 0; t < nbits; t++ {
		weight := 0
		for k, pl := range planes {
			weight |= int(pl>>uint(t)&1) << uint(k)
		}
		zmask := 0
		for i, cw := range coefWords {
			zmask |= int(cw>>uint(t)&1) << uint(i)
		}
		weights[t], zmasks[t] = weight, zmask
	}
}

// noiseBlock is the block size the packed kernel requests from the
// noise filler: one 64-bit output word per fill.
const noiseBlock = 64

// evalPacked runs `length` cycles of the word-parallel datapath with
// the given generators, 64 cycles per iteration: draw and decode one
// packed word, fill one word of noise samples, then threshold
// power-table lookups plus noise against the calibrated decision
// level. A nil fill is a noiseless channel: the noise block stays
// zero, and pow+0 > thr decides exactly as pow > thr (x+0 == x for
// every finite x, −0 and +0 compare equal, NaN compares false either
// way).
func (u *Unit) evalPacked(data, coef []*stochastic.SNG, x float64, length int, fill func(noiseMW []float64)) *stochastic.Bitstream {
	pow := u.Circuit.PowerTable()
	n := u.Circuit.P.Order
	out := stochastic.NewBitstream(length)
	var planes []uint64
	coefWords := make([]uint64, n+1)
	var weights, zmasks [64]int
	var noise [noiseBlock]float64
	for w := 0; w < out.WordCount(); w++ {
		nbits := out.WordBits(w)
		planes = u.drawWord(data, coef, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, nbits, &weights, &zmasks)
		if fill != nil {
			fill(noise[:nbits])
		}
		var word uint64
		for t := 0; t < nbits; t++ {
			if pow[weights[t]][zmasks[t]]+noise[t] > u.thresholdMW {
				word |= 1 << uint(t)
			}
		}
		out.SetWord(w, word)
	}
	return out
}

// EvaluateWords runs `length` noiseless cycles at input x through the
// word-parallel datapath and returns the de-randomized estimate of
// B(x) with the raw output stream. It advances the unit's generators
// exactly as Evaluate does and emits an identical bitstream.
func (u *Unit) EvaluateWords(x float64, length int) (float64, *stochastic.Bitstream) {
	out := u.evalPacked(u.dataSNG, u.coefSNG, x, length, nil)
	return out.Value(), out
}

// Cycles runs `length` cycles at input x through the word-parallel
// datapath and calls visit(t, weight, zmask, receivedMW) for every
// cycle t in order — the decoded per-cycle state that reductions like
// the transient eye measurement consume without paying per-bit ring
// evaluations. It advances the unit's generators exactly as
// Step/Evaluate do (64 cycles of SNG words per draw, received power
// from the shared table), so interleaving Cycles with the serial paths
// keeps every stream aligned.
func (u *Unit) Cycles(x float64, length int, visit func(t, weight, zmask int, receivedMW float64)) error {
	if length <= 0 {
		return fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if visit == nil {
		return fmt.Errorf("core: Cycles needs a visitor")
	}
	pow := u.Circuit.PowerTable()
	n := u.Circuit.P.Order
	words := (length + 63) / 64
	var planes []uint64
	coefWords := make([]uint64, n+1)
	var weights, zmasks [64]int
	for w := 0; w < words; w++ {
		nbits := min(64, length-w*64)
		planes = u.drawWord(u.dataSNG, u.coefSNG, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, nbits, &weights, &zmasks)
		for t := 0; t < nbits; t++ {
			visit(w*64+t, weights[t], zmasks[t], pow[weights[t]][zmasks[t]])
		}
	}
	return nil
}

// evalSeeded evaluates one batch input with fresh sources derived
// from seed only — the reproducible per-index unit of work behind
// EvaluateBatch. In mux form it runs the ReSC kernel on the sources'
// seeds, otherwise the packed datapath on the generators with a
// noiseless channel; both count the same bits.
func (u *Unit) evalSeeded(seed uint64, x float64, length int) float64 {
	n := u.Circuit.P.Order
	if u.muxForm() {
		data, coef := unitSeeds(n, seed)
		return float64(stochastic.ReSCOnesSplitMix(u.Poly.Coef, x, data, coef, length)) / float64(length)
	}
	data, coef := seededSNGs(n, seed)
	return u.evalPacked(data, coef, x, length, nil).Value()
}

// EvaluateBatch computes B(x) for every input with fresh `length`-bit
// streams, one work item per input dispatched on e under ctx. Input i
// is evaluated with sources seeded from the unit's seed and i only
// (stochastic.DeriveSeed), so the result is bit-identical on every
// conforming engine and any core count. The shared state (power table,
// threshold, mux form) is read-only during the fan-out;
// EvaluateBatch may itself be called concurrently. A non-positive
// stream length or a nil engine is an error, and a fired ctx (or a
// panicking item) returns a *engine.Partial instead of values.
func (u *Unit) EvaluateBatch(ctx context.Context, e engine.Engine, xs []float64, length int) ([]float64, error) {
	if length <= 0 {
		return nil, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	u.muxForm() // decide once, outside the workers
	out := make([]float64, len(xs))
	if err := engine.RunCtx(ctx, e, len(xs), nil, func(i int) {
		out[i] = u.evalSeeded(stochastic.DeriveSeed(u.seed, i), xs[i], length)
	}); err != nil {
		return nil, err
	}
	return out, nil
}
