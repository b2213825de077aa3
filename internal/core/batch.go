package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// This file is the word-parallel mirror of the packed ReSC engine in
// internal/stochastic for the end-to-end optical unit. The noiseless
// optical datapath is a pure function of the data weight and the
// coefficient bit-vector — received power thresholded against the
// calibrated OOK decision level — so 64 clock cycles collapse to: SNG
// words, a carry-save adder tree for the weight, and a lookup in a
// precomputed (weight, z-mask) → bit table. The packed path emits
// bitstreams identical to the serial Step/Evaluate path.

// isMuxTable reports whether dec is in mux form: dec[w][z] = bit w of
// z for every weight w and z-mask z, i.e. the output bit of a
// noiseless cycle is the coefficient bit its weight selects. A
// calibrated table with an open eye whose filter routes weight w to
// probe channel w is in this form.
func isMuxTable(dec [][]uint64) bool {
	masks := 1 << len(dec)
	for w, row := range dec {
		for z := 0; z < masks; z++ {
			if row[z/64]>>uint(z%64)&1 != uint64(z>>w&1) {
				return false
			}
		}
	}
	return true
}

// decisionTable returns the noiseless output-bit table,
// decisions[weight] a bitset indexed by coefficient z-mask, building
// it on first use by thresholding the circuit's shared power table and
// recording whether it is in mux form — the finished table is
// immutable and lock-free to share across batch workers. Returns nil
// for orders beyond maxTableOrder.
func (u *Unit) decisionTable() [][]uint64 {
	n := u.Circuit.P.Order
	if n > maxTableOrder {
		return nil
	}
	u.decOnce.Do(func() {
		pow := u.powerTable()
		masks := 1 << (n + 1)
		rows := make([][]uint64, n+1)
		for w := range rows {
			row := make([]uint64, (masks+63)/64)
			for zmask := 0; zmask < masks; zmask++ {
				if pow[w][zmask] > u.thresholdMW {
					row[zmask/64] |= 1 << uint(zmask%64)
				}
			}
			rows[w] = row
		}
		u.decisions, u.mux = rows, isMuxTable(rows)
	})
	return u.decisions
}

// drawWord advances the generators one packed word of nbits cycles:
// data words accumulate into the carry-save planes (returned, as the
// tree may grow), coefficient words fill coefWords. Both packed
// evaluators (noiseless and noisy) consume their sources through this
// one helper, which is what keeps them cycle-aligned with the serial
// Step path and with each other.
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
// bit-vector of cycle t — the shared decode between the noiseless
// table lookup and the noisy threshold compare.
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

// evalPacked runs `length` cycles of the word-parallel datapath with
// the given generators and decision table, 64 cycles per iteration.
func (u *Unit) evalPacked(dec [][]uint64, data, coef []*stochastic.SNG, x float64, length int) *stochastic.Bitstream {
	n := u.Circuit.P.Order
	out := stochastic.NewBitstream(length)
	var planes []uint64
	coefWords := make([]uint64, n+1)
	var weights, zmasks [64]int
	for w := 0; w < out.WordCount(); w++ {
		nbits := out.WordBits(w)
		planes = u.drawWord(data, coef, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, nbits, &weights, &zmasks)
		var word uint64
		for t := 0; t < nbits; t++ {
			zmask := zmasks[t]
			word |= dec[weights[t]][zmask/64] >> uint(zmask%64) & 1 << uint(t)
		}
		out.SetWord(w, word)
	}
	return out
}

// EvaluateWords runs `length` noiseless cycles at input x through the
// word-parallel datapath and returns the de-randomized estimate of
// B(x) with the raw output stream. It advances the unit's generators
// exactly as Evaluate does and emits an identical bitstream; orders
// beyond maxTableOrder fall back to the bit-serial path.
func (u *Unit) EvaluateWords(x float64, length int) (float64, *stochastic.Bitstream) {
	dec := u.decisionTable()
	if dec == nil {
		return u.Evaluate(x, length)
	}
	out := u.evalPacked(dec, u.dataSNG, u.coefSNG, x, length)
	return out.Value(), out
}

// Cycles runs `length` cycles at input x through the word-parallel
// datapath and calls visit(t, weight, zmask, receivedMW) for every
// cycle t in order — the decoded per-cycle state that reductions like
// the transient eye measurement consume without paying per-bit ring
// evaluations. It advances the unit's generators exactly as
// Step/Evaluate do (64 cycles of SNG words per draw, received power
// from the shared table), so interleaving Cycles with the serial paths
// keeps every stream aligned; orders beyond maxTableOrder fall back to
// the bit-serial Step walk with identical visits.
func (u *Unit) Cycles(x float64, length int, visit func(t, weight, zmask int, receivedMW float64)) error {
	if length <= 0 {
		return fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if visit == nil {
		return fmt.Errorf("core: Cycles needs a visitor")
	}
	pow := u.powerTable()
	if pow == nil {
		for t := 0; t < length; t++ {
			r := u.Step(x, 0)
			zmask := 0
			for i, z := range r.Z {
				zmask |= z << i
			}
			visit(t, r.Weight, zmask, r.ReceivedMW)
		}
		return nil
	}
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
// EvaluateBatch. A mux-form table runs the ReSC kernel on the sources'
// seeds, any other table the packed datapath on the generators, and
// orders too large to tabulate the cache-free serial walk (with a
// noiseless channel); all three count the same bits.
func (u *Unit) evalSeeded(seed uint64, x float64, length int) float64 {
	n := u.Circuit.P.Order
	dec := u.decisionTable()
	if dec != nil && u.mux {
		data, coef := unitSeeds(n, seed)
		return float64(stochastic.ReSCOnesSplitMix(u.Poly.Coef, x, data, coef, length)) / float64(length)
	}
	data, coef := seededSNGs(n, seed)
	if dec != nil {
		return u.evalPacked(dec, data, coef, x, length).Value()
	}
	return u.walkSeeded(data, coef, x, length, nil)
}

// EvaluateBatch computes B(x) for every input with fresh `length`-bit
// streams, one work item per input dispatched on e under ctx. Input i
// is evaluated with sources seeded from the unit's seed and i only
// (stochastic.DeriveSeed), so the result is bit-identical on every
// conforming engine and any core count. The shared circuit state
// (decision table, threshold) is read-only during the fan-out;
// EvaluateBatch may itself be called concurrently. A non-positive
// stream length or a nil engine is an error, and a fired ctx (or a
// panicking item) returns a *engine.Partial instead of values.
func (u *Unit) EvaluateBatch(ctx context.Context, e engine.Engine, xs []float64, length int) ([]float64, error) {
	if length <= 0 {
		return nil, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	u.decisionTable() // build once, outside the workers
	out := make([]float64, len(xs))
	if err := engine.RunCtx(ctx, e, len(xs), nil, func(i int) {
		out[i] = u.evalSeeded(stochastic.DeriveSeed(u.seed, i), xs[i], length)
	}); err != nil {
		return nil, err
	}
	return out, nil
}
