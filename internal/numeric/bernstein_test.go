package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBernsteinBasisPartitionOfUnity(t *testing.T) {
	// sum_i B_{i,n}(x) == 1 for all x in [0,1].
	for n := 0; n <= 12; n++ {
		for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
			s := 0.0
			for i := 0; i <= n; i++ {
				s += BernsteinBasis(i, n, x)
			}
			if math.Abs(s-1) > 1e-12 {
				t.Errorf("n=%d x=%g: basis sum %g", n, x, s)
			}
		}
	}
}

func TestBernsteinBasisRange(t *testing.T) {
	if got := BernsteinBasis(-1, 3, 0.5); got != 0 {
		t.Errorf("B_{-1,3} = %g", got)
	}
	if got := BernsteinBasis(4, 3, 0.5); got != 0 {
		t.Errorf("B_{4,3} = %g", got)
	}
}

func TestBernsteinBasisEndpoints(t *testing.T) {
	for n := 1; n <= 6; n++ {
		if got := BernsteinBasis(0, n, 0); got != 1 {
			t.Errorf("B_{0,%d}(0) = %g", n, got)
		}
		if got := BernsteinBasis(n, n, 1); got != 1 {
			t.Errorf("B_{%d,%d}(1) = %g", n, n, got)
		}
	}
}

func TestBernsteinEvalConstant(t *testing.T) {
	b := []float64{0.7, 0.7, 0.7, 0.7}
	for _, x := range []float64{0, 0.3, 1} {
		if got := BernsteinEval(b, x); math.Abs(got-0.7) > 1e-14 {
			t.Errorf("constant eval at %g = %g", x, got)
		}
	}
	if got := BernsteinEval(nil, 0.5); got != 0 {
		t.Errorf("empty eval = %g", got)
	}
}

func TestPowerToBernsteinPaperExample(t *testing.T) {
	// The paper's Fig. 1(b): f1(x) = 1/4 + 9/8 x - 15/8 x^2 + 5/4 x^3
	// has Bernstein coefficients (2/8, 5/8, 3/8, 6/8).
	p := []float64{0.25, 9.0 / 8, -15.0 / 8, 5.0 / 4}
	b := PowerToBernstein(p)
	want := []float64{2.0 / 8, 5.0 / 8, 3.0 / 8, 6.0 / 8}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("b[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestBernsteinConversionPreservesValues(t *testing.T) {
	p := []float64{0.25, 9.0 / 8, -15.0 / 8, 5.0 / 4}
	b := PowerToBernstein(p)
	for _, x := range Linspace(0, 1, 21) {
		powVal := 0.0
		for k := len(p) - 1; k >= 0; k-- {
			powVal = powVal*x + p[k]
		}
		if got := BernsteinEval(b, x); math.Abs(got-powVal) > 1e-12 {
			t.Errorf("x=%g: Bernstein %g vs power %g", x, got, powVal)
		}
	}
}

func TestBernsteinEndpointInterpolation(t *testing.T) {
	// A Bernstein-form polynomial interpolates its first and last
	// coefficients at x=0 and x=1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		b := make([]float64, n+1)
		for i := range b {
			b[i] = rng.Float64()
		}
		return math.Abs(BernsteinEval(b, 0)-b[0]) < 1e-12 &&
			math.Abs(BernsteinEval(b, 1)-b[n]) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitBernsteinRecoversPolynomial(t *testing.T) {
	// Fitting a degree-3 polynomial with a degree-3 basis is exact.
	want := []float64{0.25, 0.625, 0.375, 0.75}
	f := func(x float64) float64 { return BernsteinEval(want, x) }
	got, maxErr, err := FitBernstein(f, 3, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("coef[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if maxErr > 1e-8 {
		t.Errorf("maxErr = %g", maxErr)
	}
}

func TestFitBernsteinGamma(t *testing.T) {
	// The paper's motivating application: gamma correction x^0.45
	// with a 6th-order Bernstein polynomial (§V.C). The fit must be
	// representable (all coefficients in [0,1]) and accurate to a few
	// gray levels out of 256.
	gamma := func(x float64) float64 { return math.Pow(x, 0.45) }
	coef, maxErr, err := FitBernstein(gamma, 6, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range coef {
		if c < 0 || c > 1 {
			t.Errorf("coef[%d] = %g outside [0,1]", i, c)
		}
	}
	// x^0.45 has unbounded slope at 0, so the max error of any
	// degree-6 polynomial concentrates near the origin (~0.08, same
	// magnitude as in Qian et al.'s ReSC evaluation). The mean error
	// over the gray-level range is what image quality depends on.
	if maxErr > 0.1 {
		t.Errorf("gamma fit maxErr = %g, want < 0.1", maxErr)
	}
	sum := 0.0
	grid := Linspace(0, 1, 257)
	for _, x := range grid {
		sum += math.Abs(BernsteinEval(coef, x) - gamma(x))
	}
	if mae := sum / float64(len(grid)); mae > 0.02 {
		t.Errorf("gamma fit mean abs error = %g, want < 0.02", mae)
	}
}

func TestFitBernsteinDegenerateInputs(t *testing.T) {
	if _, _, err := FitBernstein(math.Sqrt, -1, 10, false); err == nil {
		t.Error("negative degree accepted")
	}
	// Too few samples get widened automatically.
	coef, _, err := FitBernstein(func(x float64) float64 { return 1 }, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range coef {
		if math.Abs(c-1) > 1e-8 {
			t.Errorf("constant fit coef %g", c)
		}
	}
}
