package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestErfInvRoundTrip(t *testing.T) {
	for _, x := range []float64{-3, -2, -1, -0.5, -0.1, 0, 0.1, 0.5, 1, 2, 3, 4} {
		y := math.Erf(x)
		got := ErfInv(y)
		if !almostEqual(got, x, 1e-9*math.Max(1, math.Abs(x))) {
			t.Errorf("ErfInv(Erf(%g)) = %g, want %g", x, got, x)
		}
	}
}

func TestErfInvEdgeCases(t *testing.T) {
	if got := ErfInv(0); got != 0 {
		t.Errorf("ErfInv(0) = %g, want 0", got)
	}
	if got := ErfInv(1); !math.IsInf(got, 1) {
		t.Errorf("ErfInv(1) = %g, want +Inf", got)
	}
	if got := ErfInv(-1); !math.IsInf(got, -1) {
		t.Errorf("ErfInv(-1) = %g, want -Inf", got)
	}
	for _, bad := range []float64{-1.5, 1.5, math.NaN()} {
		if got := ErfInv(bad); !math.IsNaN(got) {
			t.Errorf("ErfInv(%g) = %g, want NaN", bad, got)
		}
	}
}

func TestErfInvOdd(t *testing.T) {
	// erfinv is an odd function.
	f := func(y float64) bool {
		y = math.Mod(math.Abs(y), 1) // map into (-1,1)
		return almostEqual(ErfInv(-y), -ErfInv(y), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErfcInvRoundTrip(t *testing.T) {
	for _, x := range []float64{-2, -1, 0, 0.5, 1, 2, 3, 3.36, 4, 5, 6} {
		y := math.Erfc(x)
		got := ErfcInv(y)
		if !almostEqual(got, x, 1e-8*math.Max(1, math.Abs(x))) {
			t.Errorf("ErfcInv(Erfc(%g)) = %g, want %g", x, got, x)
		}
	}
}

func TestErfcInvDeepTail(t *testing.T) {
	// The BER targets used in the paper and beyond.
	for _, y := range []float64{2e-2, 2e-4, 2e-6, 1e-9, 1e-12} {
		x := ErfcInv(y)
		back := math.Erfc(x)
		if math.Abs(back-y)/y > 1e-6 {
			t.Errorf("Erfc(ErfcInv(%g)) = %g, relative error %g", y, back, math.Abs(back-y)/y)
		}
	}
}

func TestErfcInvEdgeCases(t *testing.T) {
	if got := ErfcInv(1); got != 0 {
		t.Errorf("ErfcInv(1) = %g, want 0", got)
	}
	if got := ErfcInv(0); !math.IsInf(got, 1) {
		t.Errorf("ErfcInv(0) = %g, want +Inf", got)
	}
	if got := ErfcInv(2); !math.IsInf(got, -1) {
		t.Errorf("ErfcInv(2) = %g, want -Inf", got)
	}
	for _, bad := range []float64{-0.1, 2.1, math.NaN()} {
		if got := ErfcInv(bad); !math.IsNaN(got) {
			t.Errorf("ErfcInv(%g) = %g, want NaN", bad, got)
		}
	}
}

func TestQFuncKnownValues(t *testing.T) {
	// Q(0) = 0.5; Q(1.2816) ~ 0.1; Q(3.0902) ~ 1e-3.
	cases := []struct{ x, want, tol float64 }{
		{0, 0.5, 1e-15},
		{1.2815515655446004, 0.1, 1e-10},
		{3.090232306167813, 1e-3, 1e-9},
	}
	for _, c := range cases {
		if got := QFunc(c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("QFunc(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestQFuncInvRoundTrip(t *testing.T) {
	for _, p := range []float64{0.4, 0.1, 1e-2, 1e-4, 1e-6, 1e-9} {
		x := QFuncInv(p)
		if got := QFunc(x); math.Abs(got-p)/p > 1e-6 {
			t.Errorf("QFunc(QFuncInv(%g)) = %g", p, got)
		}
	}
}

func TestBERTargetSNRRatio(t *testing.T) {
	// The paper's Fig. 6(b) observation: targeting 1e-2 instead of 1e-6
	// halves the required (linear) SNR, hence probe power.
	snr2 := 2 * math.Sqrt2 * ErfcInv(2e-2)
	snr6 := 2 * math.Sqrt2 * ErfcInv(2e-6)
	ratio := snr2 / snr6
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("SNR(1e-2)/SNR(1e-6) = %g, want ~0.5 (paper: 50%% power reduction)", ratio)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{3, 1, 3}, {3, 2, 3},
		{6, 3, 20}, {10, 5, 252},
		{20, 10, 184756},
		{5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	// Pascal's rule C(n,k) = C(n-1,k-1) + C(n-1,k) for n up to 30.
	for n := 1; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			want := Binomial(n-1, k-1) + Binomial(n-1, k)
			if got := Binomial(n, k); math.Abs(got-want) > 1e-6*want {
				t.Fatalf("Pascal rule broken at C(%d,%d): %g vs %g", n, k, got, want)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(-1, 0, 1); got != 0 {
		t.Errorf("Clamp(-1,0,1) = %g", got)
	}
	if got := Clamp(2, 0, 1); got != 1 {
		t.Errorf("Clamp(2,0,1) = %g", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %g", got)
	}
}

func TestDBConversions(t *testing.T) {
	// 4.5 dB insertion loss -> 0.3548 linear (paper §V.A uses this).
	if got := DBToLinear(-4.5); math.Abs(got-0.35481) > 1e-4 {
		t.Errorf("DBToLinear(-4.5) = %g, want ~0.35481", got)
	}
	if got := LinearToDB(0.5); math.Abs(got-(-3.0103)) > 1e-3 {
		t.Errorf("LinearToDB(0.5) = %g, want ~-3.0103", got)
	}
	if got := LinearToDB(0); !math.IsInf(got, -1) {
		t.Errorf("LinearToDB(0) = %g, want -Inf", got)
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 60) // keep within a sane dynamic range
		return almostEqual(LinearToDB(DBToLinear(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
