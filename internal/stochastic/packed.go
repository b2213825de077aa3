package stochastic

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/engine"
)

// This file is the word-parallel ReSC evaluation engine. The
// bit-serial Step/Evaluate path advances one clock per call; here 64
// clocks are simulated per machine word: the n data bits are summed
// with a bitwise carry-save adder tree over whole words, and the
// coefficient multiplexer is resolved word-at-a-time from the sum's
// bit-planes. Output is bit-identical to the serial path whenever the
// unit's sources are mutually independent (each source is consumed in
// cycle order either way), which the ReSC contract already requires.

// AddPlane adds one 0/1-per-slot word into the bit-planes of a
// per-slot counter: planes[k] holds bit k of each slot's running sum.
// It is a ripple of 64 full adders evaluated as word operations — the
// carry-save adder tree of the packed evaluators (here and in
// internal/core).
func AddPlane(planes []uint64, w uint64) []uint64 {
	for k := 0; w != 0 && k < len(planes); k++ {
		planes[k], w = planes[k]^w, planes[k]&w
	}
	if w != 0 {
		planes = append(planes, w)
	}
	return planes
}

// PlaneEquals returns the indicator word for "slot sum == v": bit t is
// set iff the counter encoded by planes equals v at slot t.
func PlaneEquals(planes []uint64, v int) uint64 {
	if v>>uint(len(planes)) != 0 {
		return 0
	}
	ind := ^uint64(0)
	for k, pl := range planes {
		if v>>uint(k)&1 == 1 {
			ind &= pl
		} else {
			ind &= ^pl
		}
	}
	return ind
}

// ReSCOnesSplitMix runs `length` clock cycles of the ReSC datapath at
// input x on fresh SplitMix64 sources — data source i seeded
// dataSeeds[i], coefficient source k seeded coefSeeds[k] — and returns
// the number of ones in the output stream: exactly Ones() of the
// stream the packed oracle EvaluateWords (packed_words_test.go) emits
// from a ReSC wired to those sources.
//
// SplitMix64 is counter-based: draw t of a generator seeded s is
// splitMix64(s + (t+1)·γ). The data words and carry-save planes are
// built as in EvaluateWords; then, for each weight k, coefficient k is
// drawn only at the clocks of PlaneEquals(planes, k), the clocks whose
// multiplexer selects it. Every clock sits in exactly one of those
// masks, so a clock costs n+1 draws instead of 2n+1, and no output
// stream is materialized. It panics unless coef and coefSeeds both
// hold len(dataSeeds)+1 entries.
func ReSCOnesSplitMix(coef []float64, x float64, dataSeeds, coefSeeds []uint64, length int) int {
	n := len(dataSeeds)
	if len(coef) != n+1 || len(coefSeeds) != n+1 {
		panic(fmt.Sprintf("stochastic: ReSCOnesSplitMix with %d data seeds needs %d coefficients and coefficient seeds, got %d and %d",
			n, n+1, len(coef), len(coefSeeds)))
	}
	xThr := probThreshold(x)
	// A sum of n bits has bits.Len(n) bit-planes, so AddPlane never
	// grows past this backing array.
	var planeBuf [64]uint64
	ones := 0
	for w := 0; w < WordsFor(length); w++ {
		nbits := planeWordBits(length, w)
		live := ^uint64(0) >> (64 - uint(nbits))
		// The state of every source after the w·64 clocks before this
		// word: its seed plus one γ per draw.
		skip := uint64(w) * 64 * splitMixGamma
		planes := planeBuf[:0]
		for _, s := range dataSeeds {
			var d uint64
			switch {
			case x <= 0:
			case x >= 1:
				d = live
			default:
				d, _ = splitMixWord(s+skip, xThr, nbits)
			}
			planes = AddPlane(planes, d)
		}
		for k, p := range coef {
			sel := PlaneEquals(planes, k) & live
			switch {
			case sel == 0 || p <= 0:
			case p >= 1:
				ones += bits.OnesCount64(sel)
			default:
				thr, s := probThreshold(p), coefSeeds[k]+skip
				for ; sel != 0; sel &= sel - 1 {
					t := uint64(bits.TrailingZeros64(sel))
					ones += int((splitMix64(s+(t+1)*splitMixGamma)>>11 - thr) >> 63)
				}
			}
		}
	}
	return ones
}

// DeriveSeed derives the randomness seed for batch input i from a
// base seed: a SplitMix64 step of base+i, so neighbouring indices get
// well-separated generator states. Batch evaluators here and in
// internal/core seed input i's sources from DeriveSeed(seed, i) alone,
// which is what makes their results scheduling-independent.
func DeriveSeed(base uint64, i int) uint64 {
	return NewSplitMix64(base + uint64(i)).NextUint64()
}

// EvaluateBatch evaluates the polynomial at every x in xs with fresh
// `length`-bit streams, one work item per input dispatched on e under
// ctx. Input i is the value of the ReSC NewReSCWithSeeds(poly,
// DeriveSeed(seed, i)) builds, so the result is bit-identical on every
// conforming engine and any core count; each input runs through
// ReSCOnesSplitMix on that unit's seeds. It returns an error for a
// non-positive stream length, an unusable polynomial or a nil engine,
// and a *engine.Partial when ctx fires (or an item panics) mid-batch.
func EvaluateBatch(ctx context.Context, e engine.Engine, poly BernsteinPoly, xs []float64, length int, seed uint64) ([]float64, error) {
	if length <= 0 {
		return nil, fmt.Errorf("stochastic: stream length %d, need >= 1", length)
	}
	if _, err := NewReSCWithSeeds(poly, seed); err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	if err := engine.RunCtx(ctx, e, len(xs), nil, func(i int) {
		data, coef := rescSeeds(poly.Degree(), DeriveSeed(seed, i))
		out[i] = float64(ReSCOnesSplitMix(poly.Coef, xs[i], data, coef, length)) / float64(length)
	}); err != nil {
		return nil, err
	}
	return out, nil
}
