package numeric

import (
	"fmt"
	"math"
)

// BernsteinBasis evaluates the Bernstein basis polynomial
// B_{i,n}(x) = C(n,i) x^i (1-x)^(n-i) on [0, 1].
// It returns 0 for i outside [0, n].
func BernsteinBasis(i, n int, x float64) float64 {
	if i < 0 || i > n {
		return 0
	}
	return Binomial(n, i) * math.Pow(x, float64(i)) * math.Pow(1-x, float64(n-i))
}

// BernsteinEval evaluates the Bernstein-form polynomial with
// coefficients b (degree len(b)-1) at x using de Casteljau's
// algorithm, which is numerically stable on [0, 1].
func BernsteinEval(b []float64, x float64) float64 {
	n := len(b)
	if n == 0 {
		return 0
	}
	w := make([]float64, n)
	copy(w, b)
	for level := 1; level < n; level++ {
		for i := 0; i < n-level; i++ {
			w[i] = w[i]*(1-x) + w[i+1]*x
		}
	}
	return w[0]
}

// PowerToBernstein converts polynomial coefficients from the power
// basis (p[k] multiplies x^k) to the Bernstein basis of the same
// degree. The conversion is exact:
//
//	b_i = sum_{k=0..i} C(i,k)/C(n,k) * p_k
//
// This is how the paper's running example f1(x) = 1/4 + 9/8 x -
// 15/8 x^2 + 5/4 x^3 becomes B = (2/8, 5/8, 3/8, 6/8) (Fig. 1b).
func PowerToBernstein(p []float64) []float64 {
	n := len(p) - 1
	if n < 0 {
		return nil
	}
	b := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		s := 0.0
		for k := 0; k <= i; k++ {
			s += Binomial(i, k) / Binomial(n, k) * p[k]
		}
		b[i] = s
	}
	return b
}

// FitBernstein least-squares fits a degree-n Bernstein polynomial to
// f sampled at `samples` equally spaced points on [0, 1]. With
// clampUnit set, coefficients are clamped to [0, 1] after the fit —
// the representability condition for single-MUX stochastic computing,
// where each coefficient is a probability.
//
// The returned maxErr is the maximum absolute deviation between f and
// the (possibly clamped) fit over the sample grid.
func FitBernstein(f func(float64) float64, n, samples int, clampUnit bool) (coef []float64, maxErr float64, err error) {
	if n < 0 {
		return nil, 0, fmt.Errorf("numeric: negative Bernstein degree %d", n)
	}
	if samples < n+1 {
		samples = 4 * (n + 1)
	}
	a := NewMatrix(samples, n+1)
	b := make([]float64, samples)
	for s := 0; s < samples; s++ {
		x := float64(s) / float64(samples-1)
		for i := 0; i <= n; i++ {
			a.Set(s, i, BernsteinBasis(i, n, x))
		}
		b[s] = f(x)
	}
	coef, err = LeastSquares(a, b, 0)
	if err != nil {
		return nil, 0, err
	}
	if clampUnit {
		for i := range coef {
			coef[i] = Clamp(coef[i], 0, 1)
		}
	}
	for s := 0; s < samples; s++ {
		x := float64(s) / float64(samples-1)
		if e := math.Abs(BernsteinEval(coef, x) - f(x)); e > maxErr {
			maxErr = e
		}
	}
	return coef, maxErr, nil
}
