package transient

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

func newTestSim(t *testing.T, probeMW float64, seed uint64) *Simulator {
	t.Helper()
	p := core.PaperParams()
	if probeMW > 0 {
		p.ProbePowerMW = probeMW
	}
	c, err := core.NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewSimulator(u, seed+1)
}

func TestSigmaDerivedFromDetector(t *testing.T) {
	s := newTestSim(t, 0, 1)
	det := s.Unit.Circuit.P.Detector
	want := det.NoiseCurrentA / det.ResponsivityAPerW * 1e3
	if math.Abs(s.SigmaMW-want) > 1e-15 {
		t.Errorf("sigma = %g, want %g", s.SigmaMW, want)
	}
}

func TestMeasuredBERMatchesAnalytic(t *testing.T) {
	// Size the probe power for a 1e-2 BER so a 200k-bit run gives
	// ~2000 errors — tight statistics. Measured and analytic Eq. (9)
	// must then agree within sampling error.
	p := core.PaperParams()
	c0 := core.MustCircuit(p)
	p.ProbePowerMW = c0.MinProbePowerMW(1e-2)
	c := core.MustCircuit(p)
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator(u, 10)

	analytic := s.AnalyticWorstCaseBER()
	measured, err := s.MeasureWorstCaseBER(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if analytic <= 0 {
		t.Fatalf("analytic BER = %g", analytic)
	}
	ratio := measured / analytic
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("measured BER %g vs analytic %g (ratio %.2f)", measured, analytic, ratio)
	}
}

// fillWorstCaseBER is the block-noise MeasureWorstCaseBER the
// ThresholdWord kernel replaced: FillScaled noise added to each
// slot's level and compared with the threshold.
func fillWorstCaseBER(s *Simulator, bits int) float64 {
	if bits%2 != 0 {
		bits++
	}
	oneLevel, zeroLevel, threshold := s.worstCasePair()
	errors := 0
	var noise [64]float64
	for t := 0; t < bits; t += len(noise) {
		nb := min(len(noise), bits-t)
		s.noise.FillScaled(noise[:nb], s.SigmaMW)
		for k := 0; k < nb; k++ {
			level, want := oneLevel, true
			if (t+k)%2 != 0 {
				level, want = zeroLevel, false
			}
			if level+noise[k] > threshold != want {
				errors++
			}
		}
	}
	return float64(errors) / float64(bits)
}

// TestMeasureWorstCaseBERThresholdWordMatchesFill pins the kernel swap
// as bit-identical: across probe powers from a closed eye to a
// vanishing BER, slot counts that end mid-block and mid-pair, and a
// noise stream entered with and without a cached spare, the measured
// BER and the noise stream left behind equal the FillScaled loop's.
func TestMeasureWorstCaseBERThresholdWordMatchesFill(t *testing.T) {
	p := core.PaperParams()
	c := core.MustCircuit(p)
	powers := []float64{c.MinProbePowerMW(0.3), c.MinProbePowerMW(1e-1), c.MinProbePowerMW(1e-4), c.MinProbePowerMW(1e-12), 1e-6}
	for _, mw := range powers {
		for _, bits := range []int{1, 2, 63, 64, 65, 130, 20_000} {
			for _, spare := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					got, want := newTestSim(t, mw, seed), newTestSim(t, mw, seed)
					if spare {
						got.Step(0.5)
						want.Step(0.5)
					}
					g, err := got.MeasureWorstCaseBER(bits)
					if err != nil {
						t.Fatal(err)
					}
					if w := fillWorstCaseBER(want, bits); g != w {
						t.Fatalf("%.4g mW, %d bits, spare %v, seed %d: BER %g, FillScaled loop %g", mw, bits, spare, seed, g, w)
					}
					if g, w := got.noise.Next(), want.noise.Next(); g != w {
						t.Fatalf("%.4g mW, %d bits, spare %v, seed %d: noise stream diverged (%g vs %g)", mw, bits, spare, seed, g, w)
					}
				}
			}
		}
	}
}

func TestAnalyticWorstCaseTracksCircuitBER(t *testing.T) {
	// The pattern-pair BER and the circuit's Eq. (9) BER use slightly
	// different crosstalk accounting (simultaneous vs summed one-hot
	// patterns); they must agree within an order of magnitude at
	// moderate SNR.
	p := core.PaperParams()
	p.ProbePowerMW = core.MustCircuit(p).MinProbePowerMW(1e-3)
	c := core.MustCircuit(p)
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator(u, 5)
	a := s.AnalyticWorstCaseBER()
	b := c.BER()
	if a <= 0 || b <= 0 {
		t.Fatalf("BERs: %g, %g", a, b)
	}
	if r := math.Log10(a / b); math.Abs(r) > 1.5 {
		t.Errorf("pattern BER %g vs circuit BER %g differ by 10^%.1f", a, b, r)
	}
}

func TestNoisyEvaluationStillConverges(t *testing.T) {
	// At the paper's 1 mW probes the SNR is deep, so noise barely
	// perturbs the result.
	s := newTestSim(t, 0, 21)
	for _, x := range []float64{0.25, 0.5, 0.75} {
		got, _, err := s.Evaluate(x, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Unit.Poly.Eval(x)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("x=%g: noisy %g vs analytic %g", x, got, want)
		}
	}
}

func TestAccuracyVsLengthTradeoff(t *testing.T) {
	s := newTestSim(t, 0, 33)
	pts, err := s.AccuracyVsLengthCtx(context.Background(), engine.WordParallel, 0.5, []int{64, 256, 1024, 4096}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	// RMSE shrinks with stream length; throughput falls.
	if !(pts[0].RMSE > pts[3].RMSE) {
		t.Errorf("RMSE did not shrink: %v -> %v", pts[0], pts[3])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ThroughputResultsPerSec >= pts[i-1].ThroughputResultsPerSec {
			t.Errorf("throughput not decreasing at %d", i)
		}
	}
	// RMSE at length L is near the binomial limit sqrt(v(1-v)/L)
	// when the channel is clean.
	want := math.Sqrt(0.5 * 0.5 / 4096)
	if pts[3].RMSE > 4*want {
		t.Errorf("RMSE %g far above binomial floor %g", pts[3].RMSE, want)
	}
	if pts[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestAccuracyVsLengthDegenerate(t *testing.T) {
	s := newTestSim(t, 0, 40)
	pts, err := s.AccuracyVsLengthCtx(context.Background(), engine.WordParallel, 0.5, []int{0, -5, 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].StreamLen != 16 {
		t.Errorf("degenerate lengths mishandled: %v", pts)
	}
}

func TestNoiseDegradesAccuracy(t *testing.T) {
	// Artificially raising the noise floor must hurt the computation.
	quiet := newTestSim(t, 0, 50)
	noisy := newTestSim(t, 0, 50)
	noisy.SigmaMW = 0.25 // comparable to the eye opening

	rmse := func(s *Simulator) float64 {
		pts, err := s.AccuracyVsLengthCtx(context.Background(), engine.WordParallel, 0.5, []int{512}, 60)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].RMSE
	}
	q, n := rmse(quiet), rmse(noisy)
	if n <= q {
		t.Errorf("noise did not degrade accuracy: quiet %g vs noisy %g", q, n)
	}
}

// TestEvaluateRejectsBadLength is the regression for the NaN an
// empty bitstream used to produce: every evaluation entry point must
// reject a non-positive stream length, matching the GammaReSC /
// GammaOptical validation.
func TestEvaluateRejectsBadLength(t *testing.T) {
	s := newTestSim(t, 0, 61)
	for _, l := range []int{0, -7} {
		if v, _, err := s.Evaluate(0.5, l); err == nil {
			t.Errorf("Evaluate(%d) = %g, want error", l, v)
		}
		if v, _, err := s.EvaluateWords(0.5, l); err == nil {
			t.Errorf("EvaluateWords(%d) = %g, want error", l, v)
		}
		if _, err := s.EvaluateBatch(context.Background(), engine.WordParallel, []float64{0.5}, l); err == nil {
			t.Errorf("EvaluateBatch(len %d) accepted", l)
		}
	}
}

// TestMeasureWorstCaseBERValidation is the regression for the bits<=0
// division by zero (NaN) and the odd-count pattern bias.
func TestMeasureWorstCaseBERValidation(t *testing.T) {
	s := newTestSim(t, 0, 62)
	for _, bits := range []int{0, -100} {
		if ber, err := s.MeasureWorstCaseBER(bits); err == nil {
			t.Errorf("MeasureWorstCaseBER(%d) = %g, want error", bits, ber)
		}
	}
	// An odd count is rounded up so both patterns are transmitted
	// equally often: same fresh simulator, same result as the next
	// even count.
	for _, bits := range []int{1, 99_999} {
		odd, err := newTestSim(t, 0, 63).MeasureWorstCaseBER(bits)
		if err != nil {
			t.Fatal(err)
		}
		even, err := newTestSim(t, 0, 63).MeasureWorstCaseBER(bits + 1)
		if err != nil {
			t.Fatal(err)
		}
		if odd != even {
			t.Errorf("odd %d not balanced: %g vs %g at %d", bits, odd, even, bits+1)
		}
	}
}
