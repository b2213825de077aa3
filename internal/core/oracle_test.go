package core

import (
	"math"

	"repro/internal/numeric"
)

// exactExpectation is the probability that one noiseless output cycle
// of u reads 1 at input x, summed over the unit's own decision table:
//
//	E(x) = Σ_w Σ_z C(n,w)·xʷ(1−x)ⁿ⁻ʷ · P(z) · dec[w][z],
//	P(z) = Π_i b_iᶻⁱ(1−b_i)¹⁻ᶻⁱ,
//
// with b_i the polynomial's coefficient probabilities. The unit's SNG
// draws are i.i.d., so an L-cycle batch result is Binomial(L, E)/L. A
// wrong table cell moves E away from the Bernstein value B(x); a wrong
// decode moves the batch away from E.
func exactExpectation(u *Unit, x float64) float64 {
	dec := u.decisionTable()
	n := u.Circuit.P.Order
	e := 0.0
	for w := 0; w <= n; w++ {
		pw := numeric.BernsteinBasis(w, n, x)
		for z := 0; z < 1<<(n+1); z++ {
			if dec[w][z/64]>>uint(z%64)&1 == 0 {
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
