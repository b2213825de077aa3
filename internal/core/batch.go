package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// This file is the word-parallel mirror of the packed ReSC engine in
// internal/stochastic for the end-to-end optical unit. The optical
// datapath's received power is a pure function of the data weight and
// the coefficient bit-vector, so 64 clock cycles collapse to: SNG
// words, a carry-save adder tree for the weight, a lookup in the
// circuit's (weight, z-mask) power table and one threshold decision
// per bit against the calibrated OOK level. One kernel, evalPacked,
// serves the noiseless and the noisy evaluators; it emits bitstreams
// identical to the serial Step/Evaluate path.

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

// decodeCycles transposes the packed word state back to one
// power-table cell per cycle: cells[t] = weight<<(n+1) | zmask, with
// weight the data-bit sum and zmask the coefficient bit-vector of cycle
// t — the shared decode between the packed kernel and Cycles. It visits
// only the set bits of each word, so its cost follows the ones drawn,
// not 64 cycles times every word. Callers read the cells of the word's
// valid cycles only.
func decodeCycles(planes, coefWords []uint64, cells *[64]int) {
	*cells = [64]int{}
	for i, cw := range coefWords {
		for ; cw != 0; cw &= cw - 1 {
			cells[bits.TrailingZeros64(cw)] |= 1 << uint(i)
		}
	}
	n1 := uint(len(coefWords))
	for k, pl := range planes {
		for ; pl != 0; pl &= pl - 1 {
			cells[bits.TrailingZeros64(pl)] |= 1 << (n1 + uint(k))
		}
	}
}

// noiseBlock is the block size the packed kernel requests from the
// noise filler: one 64-bit output word per fill.
const noiseBlock = 64

// packedNoise is the packed kernel's received-power noise. The zero
// value is a noiseless channel; fill adds a block filler's samples;
// screens with g decides Gaussian noise through
// stochastic.Gaussian.ThresholdWord.
type packedNoise struct {
	fill    func(noiseMW []float64)
	screens *NoiseScreens
	g       *stochastic.Gaussian
}

// evalPacked runs `length` cycles of the word-parallel datapath with
// the given generators, 64 cycles per iteration: draw one packed word,
// decode each cycle's power-table cell and threshold its level against
// the calibrated decision level. A noiseless channel compares
// level > thr; a filler's channel fills one word of noise samples and
// compares level + noise > thr; a Gaussian channel gathers the cells'
// screens and lets ThresholdWord decide the same sums, consuming the
// Gaussian exactly as FillScaled would. It returns the number of ones
// and writes the stream into out unless out is nil, which the seeded
// evaluators pass because they need only the count. Only a filler's
// noise block is allocated.
func (u *Unit) evalPacked(data, coef []*stochastic.SNG, x float64, length int, noise packedNoise, out *stochastic.Bitstream) (ones int) {
	pow := u.Circuit.powerCells()
	thr := u.thresholdMW
	var planeBuf [8]uint64 // a weight of at most MaxOrder needs 5 planes
	var coefBuf [MaxOrder + 1]uint64
	planes, coefWords := planeBuf[:0], coefBuf[:u.Circuit.P.Order+1]
	var cells [64]int
	var levels [64]float64
	var screens [64]stochastic.Screen
	var samples []float64 // a filler may keep its block, so only a filler's run allocates one
	if noise.fill != nil {
		samples = make([]float64, noiseBlock)
	}
	for w := 0; w*64 < length; w++ {
		nbits := min(64, length-w*64)
		planes = u.drawWord(data, coef, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, &cells)
		var word uint64
		switch {
		case noise.screens != nil:
			for t := 0; t < nbits; t++ {
				levels[t], screens[t] = pow[cells[t]], noise.screens.cells[cells[t]]
			}
			word = noise.g.ThresholdWord(levels[:nbits], screens[:nbits], thr, noise.screens.sigmaMW)
		case noise.fill != nil:
			noise.fill(samples[:nbits])
			for t := 0; t < nbits; t++ {
				if pow[cells[t]]+samples[t] > thr {
					word |= 1 << uint(t)
				}
			}
		default:
			for t := 0; t < nbits; t++ {
				if pow[cells[t]] > thr {
					word |= 1 << uint(t)
				}
			}
		}
		ones += bits.OnesCount64(word)
		if out != nil {
			out.SetWord(w, word)
		}
	}
	return ones
}

// EvaluateWords runs `length` noiseless cycles at input x through the
// word-parallel datapath and returns the de-randomized estimate of
// B(x) with the raw output stream. It advances the unit's generators
// exactly as Evaluate does and emits an identical bitstream.
func (u *Unit) EvaluateWords(x float64, length int) (float64, *stochastic.Bitstream) {
	out := stochastic.NewBitstream(length)
	u.evalPacked(u.dataSNG, u.coefSNG, x, length, packedNoise{}, out)
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
	pow := u.Circuit.powerCells()
	n := u.Circuit.P.Order
	words := (length + 63) / 64
	var planeBuf [8]uint64
	var coefBuf [MaxOrder + 1]uint64
	planes, coefWords := planeBuf[:0], coefBuf[:n+1]
	var cells [64]int
	for w := 0; w < words; w++ {
		nbits := min(64, length-w*64)
		planes = u.drawWord(u.dataSNG, u.coefSNG, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, &cells)
		for t := 0; t < nbits; t++ {
			c := cells[t]
			visit(w*64+t, c>>(n+1), c&(1<<(n+1)-1), pow[c])
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
	return float64(u.evalPacked(data, coef, x, length, packedNoise{}, nil)) / float64(length)
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
