package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/optics"
	"repro/internal/stochastic"
)

// TestParallelArrayCorrectness: every lane replicates the design — a
// unit that evaluates B(x) like the single-unit path.
func TestParallelArrayCorrectness(t *testing.T) {
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	arr, err := NewParallelArray(c, poly, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	xs := numeric.Linspace(0, 1, 16)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = poly.Eval(x)
	}
	for lane, u := range arr.Units {
		got, err := u.EvaluateBatch(context.Background(), engine.WordParallel, xs, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if mae := numeric.MeanAbsError(got, want); mae > 0.02 {
			t.Errorf("lane %d batch MAE = %g", lane, mae)
		}
	}
}

func TestParallelArrayLanesIndependent(t *testing.T) {
	// Different lanes use different randomness: evaluating the same
	// x on each lane should give near-but-not-identical estimates.
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	arr, err := NewParallelArray(c, poly, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, arr.Lanes())
	for lane, u := range arr.Units {
		got[lane], _ = u.EvaluateWords(0.5, 1024)
	}
	if got[0] == got[1] && got[1] == got[2] {
		t.Error("all lanes produced identical streams; seeds not independent")
	}
}

func TestParallelArrayThroughputScales(t *testing.T) {
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	one, _ := NewParallelArray(c, poly, 1, 1)
	eight, _ := NewParallelArray(c, poly, 8, 2)
	r := eight.ThroughputResultsPerSec(256) / one.ThroughputResultsPerSec(256)
	if math.Abs(r-8) > 1e-9 {
		t.Errorf("throughput scaling = %g, want 8", r)
	}
	if p := eight.TotalPowerMW() / one.TotalPowerMW(); math.Abs(p-8) > 1e-9 {
		t.Errorf("power scaling = %g, want 8", p)
	}
	// Power density is lane-invariant (both scale linearly).
	if d := eight.PowerDensityMWPerMM2() / one.PowerDensityMWPerMM2(); math.Abs(d-1) > 1e-9 {
		t.Errorf("density changed with lanes: ratio %g", d)
	}
}

func TestParallelArrayPowerAccounting(t *testing.T) {
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	arr, _ := NewParallelArray(c, poly, 1, 1)
	p := c.P
	// Hand calculation: duty-cycled pump + 3 probes, / efficiency.
	pumpAvg := p.PumpPowerMW * p.PulseWidthS / p.BitPeriodS()
	want := (pumpAvg + 3*p.ProbePowerMW) / p.LasingEfficiency
	if got := arr.TotalPowerMW(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("total power %g, want %g", got, want)
	}
}

func TestParallelArrayErrors(t *testing.T) {
	c := paperCircuit(t)
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	if _, err := NewParallelArray(c, poly, 0, 1); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := NewParallelArray(c, stochastic.PaperF1(), 2, 1); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestAreaModel(t *testing.T) {
	p := PaperParams()
	a := p.AreaMM2()
	if a <= 0 || a > 10 {
		t.Errorf("area %g mm² implausible", a)
	}
	// More MZIs and rings -> more area.
	p6, err := MRRFirst(MRRFirstSpec{Order: 6, WLSpacingNM: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if p6.AreaMM2() <= a {
		t.Error("order-6 area not larger than order-2")
	}
	// Explicit phase-shifter length is honored.
	q := PaperParams()
	q.MZI.PhaseShifterLenMM = 4
	if q.AreaMM2() <= p.AreaMM2() {
		t.Error("longer phase shifter did not grow area")
	}
}

func TestFunctionUnitSquareRoot(t *testing.T) {
	// sqrt(x) is concave with coefficients in [0,1]: a good degree-4
	// target for the general API.
	fu, err := NewFunctionUnit(math.Sqrt, 4, 0.25, MRRFirstSpec{}, 77)
	if err != nil {
		t.Fatal(err)
	}
	// sqrt has unbounded slope at 0, so the clamped degree-4 fit's
	// worst error (~0.1) concentrates at the origin.
	if fu.FitMaxErr > 0.12 {
		t.Errorf("fit error %g", fu.FitMaxErr)
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		got := fu.Evaluate(x, 1<<14)
		if math.Abs(got-math.Sqrt(x)) > fu.FitMaxErr+0.03 {
			t.Errorf("sqrt(%g): optical %g vs exact %g (fit floor %g)", x, got, math.Sqrt(x), fu.FitMaxErr)
		}
	}
	xs := numeric.Linspace(0, 1, 5)
	if got, err := fu.Unit.EvaluateBatch(context.Background(), engine.WordParallel, xs, 2048); err != nil || len(got) != 5 {
		t.Errorf("sweep length %d, err %v", len(got), err)
	}
}

func TestFunctionUnitErrors(t *testing.T) {
	if _, err := NewFunctionUnit(nil, 3, 0.2, MRRFirstSpec{}, 1); err == nil {
		t.Error("nil function accepted")
	}
	if _, err := NewFunctionUnit(math.Sqrt, -1, 0.2, MRRFirstSpec{}, 1); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := NewFunctionUnit(math.Sqrt, 3, 0.001, MRRFirstSpec{}, 1); err == nil {
		t.Error("infeasible spacing accepted")
	}
}

func TestAPDReducesProbePowerSystemLevel(t *testing.T) {
	// Future-work ref [21]: swapping the calibrated pin detector for
	// an APD with the same thermal floor cuts the required probe
	// power by M/sqrt(F).
	pin := DefaultDetector()
	apd := optics.PaperAPD(pin.NoiseCurrentA)

	base := PaperParams()
	cPin := MustCircuit(base)
	withAPD := base
	withAPD.Detector = apd.EffectiveDetector()
	cAPD := MustCircuit(withAPD)

	ratio := cPin.MinProbePowerMW(1e-6) / cAPD.MinProbePowerMW(1e-6)
	// The pin baseline has R = 1 A/W vs the APD's unity-gain 0.4 A/W,
	// so the end-to-end gain is SNRImprovement × 0.4.
	want := apd.SNRImprovement() * apd.ResponsivityAPerW / pin.ResponsivityAPerW
	if math.Abs(ratio-want)/want > 1e-9 {
		t.Errorf("APD probe reduction %g, want %g", ratio, want)
	}
	if ratio < 3 {
		t.Errorf("APD reduction only %gx", ratio)
	}
}
