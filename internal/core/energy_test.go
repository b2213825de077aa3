package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
)

func TestEnergyHeadline(t *testing.T) {
	// §V.C / abstract: a 2nd-order circuit at 1 GHz consumes
	// ≈20.1 pJ of laser energy per computed bit at the optimal
	// spacing. Our calibrated model lands within 25 %.
	m := NewEnergyModel(2)
	opt, err := m.OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.TotalPJ(); got < 15 || got > 26 {
		t.Errorf("optimal total = %g pJ, paper 20.1", got)
	}
	// The optimum sits in the paper's neighbourhood of 0.165 nm.
	if opt.WLSpacingNM < 0.12 || opt.WLSpacingNM > 0.22 {
		t.Errorf("optimal spacing = %g nm, paper 0.165", opt.WLSpacingNM)
	}
}

func TestEnergyOppositeTrends(t *testing.T) {
	// Fig. 7(a): pump energy grows with spacing, probe energy
	// shrinks.
	m := NewEnergyModel(2)
	sweep, err := m.SweepCtx(context.Background(), engine.WordParallel, 0.11, 0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) < 8 {
		t.Fatalf("only %d feasible points", len(sweep))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].PumpPJ <= sweep[i-1].PumpPJ {
			t.Errorf("pump energy not increasing at %g nm", sweep[i].WLSpacingNM)
		}
		if sweep[i].ProbePJ >= sweep[i-1].ProbePJ {
			t.Errorf("probe energy not decreasing at %g nm", sweep[i].WLSpacingNM)
		}
	}
	// Probe dominates at the narrow end, pump at the wide end.
	first, last := sweep[0], sweep[len(sweep)-1]
	if first.ProbePJ <= first.PumpPJ {
		t.Errorf("at %g nm probe (%g) should dominate pump (%g)", first.WLSpacingNM, first.ProbePJ, first.PumpPJ)
	}
	if last.PumpPJ <= last.ProbePJ {
		t.Errorf("at %g nm pump (%g) should dominate probe (%g)", last.WLSpacingNM, last.PumpPJ, last.ProbePJ)
	}
}

func TestOptimalSpacingIndependentOfOrder(t *testing.T) {
	// §V.C key result: the optimal spacing barely moves with the
	// polynomial degree (paper: identical for n = 2, 4, 6).
	var spacings []float64
	for _, n := range []int{2, 4, 6} {
		opt, err := NewEnergyModel(n).OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.1, 0.3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		spacings = append(spacings, opt.WLSpacingNM)
	}
	lo, hi := spacings[0], spacings[0]
	for _, s := range spacings {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if hi-lo > 0.05 {
		t.Errorf("optimal spacings %v spread %.3f nm; paper says order-independent", spacings, hi-lo)
	}
}

func TestFig7bEnergyVsOrder(t *testing.T) {
	// Fig. 7(b): total energy at 1 nm spacing grows linearly with
	// order (≈77 pJ at n=2 up to ≈590 pJ at n=16) and the optimal
	// spacing saves ≈76.6 %.
	totals := map[int]float64{}
	for _, n := range []int{2, 4, 8, 12, 16} {
		m := NewWideCombEnergyModel(n)
		fx, err := m.Breakdown(1.0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		totals[n] = fx.TotalPJ()
	}
	if got := totals[2]; got < 70 || got > 92 {
		t.Errorf("n=2 @1nm = %g pJ, paper ~77", got)
	}
	if got := totals[16]; got < 520 || got > 700 {
		t.Errorf("n=16 @1nm = %g pJ, paper ~590", got)
	}
	// Linearity: the pump term dominates and scales with the comb
	// span n·1nm + 0.1nm.
	ratio := totals[16] / totals[2]
	if ratio < 6 || ratio > 9 {
		t.Errorf("n=16/n=2 ratio = %g, want ~7.7", ratio)
	}
}

func TestEnergySavingVsFixed(t *testing.T) {
	saving, fixed, opt, err := NewEnergyModel(2).EnergySavingVsFixed(context.Background(), engine.WordParallel, 1.0, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 76.6 %. Our calibration reproduces ≈71 %.
	if saving < 0.60 || saving > 0.85 {
		t.Errorf("saving = %.1f%%, paper 76.6%%", saving*100)
	}
	if opt.TotalPJ() >= fixed.TotalPJ() {
		t.Error("optimum not better than 1 nm")
	}
}

func TestEnergyBreakdownArithmetic(t *testing.T) {
	m := NewEnergyModel(2)
	b, err := m.Breakdown(0.165)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.TotalPJ()-(b.PumpPJ+b.ProbePJ)) > 1e-12 {
		t.Error("TotalPJ != pump + probe")
	}
	if b.ProbeLasers != 3 {
		t.Errorf("probe laser count = %d", b.ProbeLasers)
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
	// Hand check of the pump term: power/η · 26 ps.
	wantPump := b.PumpPowerMW / 0.2 * 1e-3 * 26e-12 * 1e12
	if math.Abs(b.PumpPJ-wantPump) > 1e-9 {
		t.Errorf("pump energy %g, hand calc %g", b.PumpPJ, wantPump)
	}
	// And the probe term: 3 lasers · power/η · 1 ns.
	wantProbe := 3 * b.ProbePowerMW / 0.2 * 1e-3 * 1e-9 * 1e12
	if math.Abs(b.ProbePJ-wantProbe) > 1e-9 {
		t.Errorf("probe energy %g, hand calc %g", b.ProbePJ, wantProbe)
	}
}

func TestCWPumpAblation(t *testing.T) {
	// The pulse-based pump is the headline energy saver (§V.C): a CW
	// pump at the same power costs 1ns/26ps ≈ 38x more pump energy.
	p, err := MRRFirst(MRRFirstSpec{Order: 2, WLSpacingNM: 0.165})
	if err != nil {
		t.Fatal(err)
	}
	pulsed := ParamsEnergy(p)
	p.PulseWidthS = 0 // CW
	cw := ParamsEnergy(p)
	ratio := cw.PumpPJ / pulsed.PumpPJ
	want := 1e-9 / 26e-12
	if math.Abs(ratio-want)/want > 0.01 {
		t.Errorf("CW/pulsed pump ratio = %g, want %g", ratio, want)
	}
}

func TestEnergyModelInfeasibleRange(t *testing.T) {
	m := NewEnergyModel(2)
	if _, err := m.OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.005, 0.02); err == nil {
		t.Error("infeasible range accepted")
	}
	if _, _, _, err := m.EnergySavingVsFixed(context.Background(), engine.WordParallel, 0.01, 0.1, 0.3); err == nil {
		t.Error("infeasible fixed point accepted")
	}
}

func TestSweepSkipsInfeasible(t *testing.T) {
	m := NewEnergyModel(2)
	rows, err := m.SweepCtx(context.Background(), engine.WordParallel, 0.02, 0.3, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WLSpacingNM < 0.05 {
			t.Errorf("infeasible spacing %g present in sweep", r.WLSpacingNM)
		}
	}
	if len(rows) == 0 {
		t.Error("sweep empty")
	}
	if got, err := m.SweepCtx(context.Background(), engine.WordParallel, 0.15, 0.16, 1); err != nil || len(got) != 2 {
		t.Errorf("degenerate point count handled: %d (%v)", len(got), err)
	}
}

func BenchmarkOptimalSpacing(b *testing.B) {
	m := NewEnergyModel(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.1, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
