package stochastic

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/numeric"
)

// BernsteinPoly is a polynomial in Bernstein form on [0, 1]. The
// coefficient vector has length degree+1. For single-MUX stochastic
// evaluation (ReSC and the optical circuit alike) every coefficient
// must be a probability, i.e. lie in [0, 1].
type BernsteinPoly struct {
	Coef []float64
}

// NewBernstein copies the coefficients into a polynomial.
func NewBernstein(coef []float64) BernsteinPoly {
	c := make([]float64, len(coef))
	copy(c, coef)
	return BernsteinPoly{Coef: c}
}

// FromPower converts power-basis coefficients (p[k] multiplies x^k)
// into Bernstein form of the same degree.
func FromPower(p []float64) BernsteinPoly {
	return BernsteinPoly{Coef: numeric.PowerToBernstein(p)}
}

// Fit least-squares fits a degree-n Bernstein polynomial to f,
// clamping coefficients into [0, 1] so the result is SC-representable.
// maxErr is the worst-case deviation over the sample grid.
func Fit(f func(float64) float64, degree, samples int) (BernsteinPoly, float64, error) {
	coef, maxErr, err := numeric.FitBernstein(f, degree, samples, true)
	if err != nil {
		return BernsteinPoly{}, 0, err
	}
	return BernsteinPoly{Coef: coef}, maxErr, nil
}

// Degree returns the polynomial degree n (−1 for an empty polynomial).
func (b BernsteinPoly) Degree() int { return len(b.Coef) - 1 }

// Eval evaluates the polynomial at x with de Casteljau's algorithm.
func (b BernsteinPoly) Eval(x float64) float64 {
	return numeric.BernsteinEval(b.Coef, x)
}

// Representable reports whether every coefficient is a probability;
// a NaN coefficient is not one.
func (b BernsteinPoly) Representable() bool {
	for _, c := range b.Coef {
		if !(c >= 0 && c <= 1) {
			return false
		}
	}
	return true
}

// String renders the coefficients.
func (b BernsteinPoly) String() string {
	parts := make([]string, len(b.Coef))
	for i, c := range b.Coef {
		parts[i] = fmt.Sprintf("b%d=%.4g", i, c)
	}
	return "Bernstein(" + strings.Join(parts, ", ") + ")"
}

// PaperF1 is the paper's running example (Fig. 1b):
//
//	f1(x) = 1/4 + 9/8 x − 15/8 x² + 5/4 x³
//
// whose degree-3 Bernstein coefficients are (2/8, 5/8, 3/8, 6/8).
func PaperF1() BernsteinPoly {
	return FromPower([]float64{1.0 / 4, 9.0 / 8, -15.0 / 8, 5.0 / 4})
}

// GammaCorrection returns the degree-n Bernstein approximation of the
// gamma-correction transfer function x^gamma, the paper's motivating
// 6th-order image-processing application (§V.C). Coefficients are
// clamped to [0, 1]. A gamma that is not positive and finite is an
// error.
func GammaCorrection(gamma float64, degree int) (BernsteinPoly, float64, error) {
	if !(gamma > 0) || math.IsInf(gamma, 1) {
		return BernsteinPoly{}, 0, fmt.Errorf("stochastic: gamma %g not positive and finite", gamma)
	}
	return Fit(func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return numeric.Clamp(math.Pow(x, gamma), 0, 1)
	}, degree, 512)
}
