package core

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// exactExpectation is the probability that one noiseless output cycle
// of u reads 1 at input x, summed over the circuit's power table
// thresholded at the unit's decision level:
//
//	E(x) = Σ_w Σ_z C(n,w)·xʷ(1−x)ⁿ⁻ʷ · P(z) · [pow[w][z] > thr],
//	P(z) = Π_i b_iᶻⁱ(1−b_i)¹⁻ᶻⁱ,
//
// with b_i the polynomial's coefficient probabilities. The unit's SNG
// draws are i.i.d., so an L-cycle batch result is Binomial(L, E)/L. A
// wrong table cell moves E away from the Bernstein value B(x); a wrong
// decode moves the batch away from E.
func exactExpectation(u *Unit, x float64) float64 {
	pow := u.Circuit.PowerTable()
	n := u.Circuit.P.Order
	e := 0.0
	for w := 0; w <= n; w++ {
		pw := numeric.BernsteinBasis(w, n, x)
		for z := 0; z < 1<<(n+1); z++ {
			if !(pow[w][z] > u.thresholdMW) {
				continue
			}
			pz := 1.0
			for i, b := range u.Poly.Coef {
				if z>>i&1 == 1 {
					pz *= b
				} else {
					pz *= 1 - b
				}
			}
			e += pw * pz
		}
	}
	return e
}

// binomialZ is the z-score of an L-cycle result against its exact
// per-cycle expectation e: (got − e)/√(e(1−e)/L).
func binomialZ(got, e float64, length int) float64 {
	return (got - e) / math.Sqrt(e*(1-e)/float64(length))
}

// walkSeeded is the cache-free bit-serial oracle for the packed
// kernel: it draws from the given generators one cycle at a time,
// enumerates the circuit's received power directly and thresholds it.
// A nil fill means a noiseless channel (no noise samples are drawn).
func walkSeeded(u *Unit, data, coef []*stochastic.SNG, x float64, length int, fill func(noiseMW []float64)) float64 {
	if length <= 0 {
		return 0
	}
	n := u.Circuit.P.Order
	z := make([]int, n+1)
	var noise [noiseBlock]float64 // stays all-zero without a filler
	ones := 0
	for t := 0; t < length; t += noiseBlock {
		nb := min(noiseBlock, length-t)
		if fill != nil {
			fill(noise[:nb])
		}
		for k := 0; k < nb; k++ {
			weight := 0
			for i := 0; i < n; i++ {
				weight += data[i].NextBit(x)
			}
			for i := range z {
				z[i] = coef[i].NextBit(u.Poly.Coef[i])
			}
			if u.Circuit.ReceivedPowerMW(weight, z)+noise[k] > u.thresholdMW {
				ones++
			}
		}
	}
	return float64(ones) / float64(length)
}
