package core

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/stochastic"
)

func paperUnit(t *testing.T, seed uint64) *Unit {
	t.Helper()
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}) // arbitrary order-2
	u, err := NewUnit(c, poly, seed)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewUnitValidation(t *testing.T) {
	c := paperCircuit(t)
	if _, err := NewUnit(c, stochastic.PaperF1(), 1); err == nil {
		t.Error("degree mismatch accepted (order-3 poly on order-2 circuit)")
	}
	bad := stochastic.NewBernstein([]float64{0.2, 1.4, 0.3})
	if _, err := NewUnit(c, bad, 1); err == nil {
		t.Error("unrepresentable polynomial accepted")
	}
}

func TestUnitThresholdWithinBands(t *testing.T) {
	u := paperUnit(t, 7)
	_, maxZ, minO, _ := u.Circuit.PowerBands()
	th := u.ThresholdMW()
	if th <= maxZ || th >= minO {
		t.Errorf("threshold %g outside (%g, %g)", th, maxZ, minO)
	}
}

func TestUnitStepConsistency(t *testing.T) {
	u := paperUnit(t, 11)
	for i := 0; i < 200; i++ {
		r := u.Step(0.5, 0)
		if r.Weight < 0 || r.Weight > 2 {
			t.Fatalf("weight %d", r.Weight)
		}
		if r.Selected != r.Weight {
			t.Fatalf("selected %d != weight %d", r.Selected, r.Weight)
		}
		// Noiseless decision must equal the driven coefficient bit
		// whenever the worst-case eye is open (it is, for the paper
		// design).
		if r.Bit != r.Z[r.Selected] {
			t.Fatalf("optical bit %d != coefficient bit %d (power %g)", r.Bit, r.Z[r.Selected], r.ReceivedMW)
		}
	}
}

func TestUnitMatchesAnalyticPolynomial(t *testing.T) {
	u := paperUnit(t, 2024)
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, _ := u.Evaluate(x, 1<<15)
		want := u.Poly.Eval(x)
		if math.Abs(got-want) > 0.015 {
			t.Errorf("x=%g: optical %g vs analytic %g", x, got, want)
		}
	}
}

func TestUnitMatchesElectronicReSC(t *testing.T) {
	// The optical unit and the electronic baseline estimate the same
	// polynomial; with independent randomness their estimates agree
	// within stochastic tolerance.
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	u, err := NewUnit(c, poly, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stochastic.NewReSCWithSeeds(poly, 99)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1 << 14
	for _, x := range []float64{0.2, 0.5, 0.8} {
		opt, _ := u.Evaluate(x, bits)
		ele, _ := r.Evaluate(x, bits)
		if math.Abs(opt-ele) > 0.03 {
			t.Errorf("x=%g: optical %g vs electronic %g", x, opt, ele)
		}
	}
}

func TestUnitNoiseFlipsBits(t *testing.T) {
	u := paperUnit(t, 31)
	// A large negative power excursion forces a '1' to read as '0'.
	flips := 0
	for i := 0; i < 500; i++ {
		r := u.Step(0.5, -1.0) // -1 mW swamps the ~0.5 mW '1' level
		if r.Z[r.Selected] == 1 && r.Bit == 0 {
			flips++
		}
	}
	if flips == 0 {
		t.Error("strong negative noise never flipped a '1'")
	}
}

func TestUnitSweepAccuracy(t *testing.T) {
	u := paperUnit(t, 77)
	xs := numeric.Linspace(0, 1, 9)
	got := u.EvaluateBatch(xs, 1<<13)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = u.Poly.Eval(x)
	}
	if mae := numeric.MeanAbsError(got, want); mae > 0.02 {
		t.Errorf("sweep MAE = %g", mae)
	}
}

func TestGammaPolynomialOnOpticalUnit(t *testing.T) {
	// End-to-end 6th-order gamma correction on an optical unit — the
	// paper's motivating application (§V.C).
	poly, _, err := stochastic.GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MRRFirst(MRRFirstSpec{Order: 6, WLSpacingNM: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(c, poly, 123)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		got, _ := u.Evaluate(x, 1<<14)
		want := math.Pow(x, 0.45)
		if math.Abs(got-want) > 0.06 {
			t.Errorf("gamma(%g): optical %g vs exact %g", x, got, want)
		}
	}
}
