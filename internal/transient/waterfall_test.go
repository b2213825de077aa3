package transient

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestBERWaterfallTracksAnalytic is the statistical oracle for the
// measured waterfall: every slot of the worst-case pattern pair errs
// independently with the Eq. (9) probability p, so a point's error
// count is Binomial(bits, p). At each point of the 1e-1 .. 1e-4
// waterfall the seeded count must lie within 5 binomial standard
// deviations of bits·p — the binomial error analysis of "Principles of
// Stochastic Computing" (arXiv 2011.05153) applied to the link.
func TestBERWaterfallTracksAnalytic(t *testing.T) {
	base := core.PaperParams()
	c := core.MustCircuit(base)
	targets := []float64{1e-1, 1e-2, 1e-3, 1e-4}
	powers := make([]float64, len(targets))
	for i, ber := range targets {
		powers[i] = c.MinProbePowerMW(ber)
	}
	const bits = 300_000
	pts, err := BERWaterfallCtx(context.Background(), engine.WordParallel, base, powers, bits, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(targets) {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.AnalyticBER <= 0 || p.AnalyticBER >= 0.5 {
			t.Fatalf("point %d: analytic %g", i, p.AnalyticBER)
		}
		errors := math.Round(p.MeasuredBER * bits)
		mean := bits * p.AnalyticBER
		sd := math.Sqrt(bits * p.AnalyticBER * (1 - p.AnalyticBER))
		if z := (errors - mean) / sd; math.Abs(z) > 5 {
			t.Errorf("point %d (%.4f mW, target %g): %.0f errors in %d bits, Eq. (9) expects %.1f ± %.1f (z = %.1f)",
				i, p.ProbeMW, targets[i], errors, bits, mean, sd, z)
		}
		// More power, fewer errors.
		if i > 0 && p.AnalyticBER >= pts[i-1].AnalyticBER {
			t.Errorf("analytic BER not decreasing at %d", i)
		}
	}
	if pts[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestBERWaterfallErrors(t *testing.T) {
	base := core.PaperParams()
	if _, err := BERWaterfallCtx(context.Background(), engine.WordParallel, base, []float64{1}, 0, 1); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := BERWaterfallCtx(context.Background(), engine.WordParallel, base, []float64{-1}, 100, 1); err == nil {
		t.Error("negative power accepted")
	}
	bad := base
	bad.Order = 0
	if _, err := BERWaterfallCtx(context.Background(), engine.WordParallel, bad, []float64{1}, 100, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestBERWaterfallAgainstEq9RoundTrip(t *testing.T) {
	// Sizing the probe for a target with Eq. (9) and then measuring
	// at exactly that power recovers the target (the §V.B design
	// loop closed end to end). The worst-case pattern-pair BER the
	// simulator measures is slightly pessimistic relative to the
	// Eq. (8) margin (simultaneous vs one-hot crosstalk), so allow a
	// one-sided band.
	base := core.PaperParams()
	c := core.MustCircuit(base)
	target := 1e-2
	power := c.MinProbePowerMW(target)
	pts, err := BERWaterfallCtx(context.Background(), engine.WordParallel, base, []float64{power}, 400_000, 23)
	if err != nil {
		t.Fatal(err)
	}
	got := pts[0].MeasuredBER
	if got < target/3 || got > target*4 {
		t.Errorf("measured %g at power sized for %g", got, target)
	}
}
