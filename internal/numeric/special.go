package numeric

import (
	"math"
)

// ErfInv returns the inverse error function: ErfInv(Erf(x)) == x for
// finite x. The argument must lie in (-1, 1); ±1 map to ±Inf and
// values outside [-1, 1] return NaN.
//
// The implementation uses the rational initial guess of Giles
// ("Approximating the erfinv function", 2010) refined by two
// Newton iterations, which brings the result to full float64
// precision on the whole open interval.
func ErfInv(y float64) float64 {
	switch {
	case math.IsNaN(y) || y < -1 || y > 1:
		return math.NaN()
	case y == 1:
		return math.Inf(1)
	case y == -1:
		return math.Inf(-1)
	case y == 0:
		return 0
	}

	x := erfInvEstimate(y)
	// Newton refinement on f(x) = erf(x) - y.
	// f'(x) = 2/sqrt(pi) * exp(-x^2).
	for i := 0; i < 3; i++ {
		e := math.Erf(x) - y
		x -= e * math.Sqrt(math.Pi) / 2 * math.Exp(x*x)
	}
	return x
}

// erfInvEstimate computes a low-accuracy initial estimate of the
// inverse error function using a central polynomial for small |y| and
// a tail expansion otherwise.
func erfInvEstimate(y float64) float64 {
	a := math.Abs(y)
	if a < 0.7 {
		// Central region: series in w = y^2.
		w := y * y
		num := ((-0.140543331*w+0.914624893)*w-1.645349621)*w + 0.886226899
		den := (((0.012229801*w-0.329097515)*w+1.442710462)*w-2.118377725)*w + 1
		return y * num / den
	}
	// Tail region.
	w := math.Sqrt(-math.Log((1 - a) / 2))
	num := ((1.641345311*w+3.429567803)*w-1.62490649)*w - 1.970840454
	den := (1.637067800*w+3.543889200)*w + 1
	x := num / den
	if y < 0 {
		return -x
	}
	return x
}

// ErfcInv returns the inverse complementary error function:
// ErfcInv(Erfc(x)) == x. The argument must lie in (0, 2); 0 maps to
// +Inf and 2 maps to -Inf. Values outside [0, 2] return NaN.
//
// For very small arguments (deep BER targets such as 1e-12) the
// central identity ErfcInv(y) = ErfInv(1-y) loses all precision, so an
// asymptotic tail estimate refined by Newton iterations on
// log(erfc(x)) is used instead.
func ErfcInv(y float64) float64 {
	switch {
	case math.IsNaN(y) || y < 0 || y > 2:
		return math.NaN()
	case y == 0:
		return math.Inf(1)
	case y == 2:
		return math.Inf(-1)
	case y == 1:
		return 0
	}
	if y > 1 {
		// erfc(-x) = 2 - erfc(x).
		return -ErfcInv(2 - y)
	}
	if y > 0.1 {
		return ErfInv(1 - y)
	}

	// Tail: erfc(x) ~ exp(-x^2)/(x sqrt(pi)); invert iteratively.
	// Initial guess from x^2 ≈ -log(y*sqrt(pi)*sqrt(-log y)).
	t := -math.Log(y)
	x := math.Sqrt(t - 0.5*math.Log(math.Pi*t))
	// Newton on g(x) = log(erfc(x)) - log(y).
	// g'(x) = -2 exp(-x^2) / (sqrt(pi) erfc(x)).
	for i := 0; i < 6; i++ {
		e := math.Erfc(x)
		if e == 0 {
			break
		}
		g := math.Log(e) - math.Log(y)
		gp := -2 * math.Exp(-x*x) / (math.SqrtPi * e)
		step := g / gp
		x -= step
		if math.Abs(step) < 1e-15*math.Abs(x) {
			break
		}
	}
	return x
}

// QFunc returns the Gaussian Q-function Q(x) = 0.5*erfc(x/sqrt(2)),
// the probability that a standard normal variable exceeds x. It is
// the natural primitive behind on/off-keyed bit-error rates.
//
//osclint:ignore testonly ROADMAP item 2: the noisy unit's exact expectation sums Q((thr - pow)/sigma) over the power table
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// QFuncInv returns the inverse of the Gaussian Q-function.
//
//osclint:ignore testonly ROADMAP item 2: the noisy unit's exact expectation sums Q((thr - pow)/sigma) over the power table
func QFuncInv(p float64) float64 {
	return math.Sqrt2 * ErfcInv(2*p)
}

// Binomial returns the binomial coefficient C(n, k) as a float64.
// It returns 0 for k < 0 or k > n. The multiplicative form keeps the
// intermediate values small, so results are exact for all coefficients
// representable in a float64 (n up to ~57 for central coefficients).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// DBToLinear converts a decibel power ratio to a linear ratio:
// 10^(db/10). A 4.5 dB insertion loss therefore corresponds to a
// linear transmission of DBToLinear(-4.5) ≈ 0.3548.
func DBToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}

// LinearToDB converts a linear power ratio to decibels: 10*log10(x).
// Non-positive inputs return -Inf.
func LinearToDB(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(x)
}
