package numeric

import (
	"math"
)

// invPhi is 1/φ, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSection minimizes a unimodal function f over [a, b] and
// returns the abscissa of the minimum to within tol. If f is not
// unimodal the routine still terminates and returns a local minimum.
//
// The optimal-wavelength-spacing search of Fig. 7(a) uses this after a
// coarse grid scan has isolated the basin that contains the total
// laser-energy minimum.
func GoldenSection(f func(float64) float64, a, b, tol float64) float64 {
	if b < a {
		a, b = b, a
	}
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return a + (b-a)/2
}

// GridMinimize evaluates f at n+1 equally spaced points spanning
// [a, b] and returns the abscissa and value of the smallest sample.
// It is the robust first stage before a GoldenSection refinement for
// objectives with multiple shallow basins (e.g. total laser energy
// when crosstalk resonances make the probe-power curve non-convex).
func GridMinimize(f func(float64) float64, a, b float64, n int) (x, fx float64) {
	if n < 1 {
		n = 1
	}
	x, fx = a, f(a)
	for i := 1; i <= n; i++ {
		xi := a + (b-a)*float64(i)/float64(n)
		fi := f(xi)
		if fi < fx || math.IsNaN(fx) {
			x, fx = xi, fi
		}
	}
	return x, fx
}
