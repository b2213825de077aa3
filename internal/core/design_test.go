package core

import (
	"math"
	"testing"

	"repro/internal/optics"
)

func TestMRRFirstPaperAnchors(t *testing.T) {
	// §V.A with the Fig. 5 rings: 1 nm spacing, λ2 = 1550 nm,
	// λref = 1550.1 nm, IL = 4.5 dB → pump 591.8 mW, ER 13.22 dB.
	p, err := MRRFirst(MRRFirstSpec{
		Order:       2,
		WLSpacingNM: 1.0,
		ModShape:    Fig5ModulatorShape(),
		FilterShape: Fig5FilterShape(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.PumpPowerMW-591.8) > 0.5 {
		t.Errorf("pump = %g mW, paper 591.8", p.PumpPowerMW)
	}
	if math.Abs(p.MZI.ERdB-13.22) > 0.05 {
		t.Errorf("ER = %g dB, paper 13.22", p.MZI.ERdB)
	}
	if p.ProbePowerMW <= 0 || math.IsInf(p.ProbePowerMW, 1) {
		t.Errorf("probe = %g mW", p.ProbePowerMW)
	}
	// The designed circuit is exactly aligned.
	if got := MustCircuit(p).AlignmentErrorNM(); got > 1e-3 {
		t.Errorf("alignment error = %g nm", got)
	}
}

func TestMRRFirstDefaults(t *testing.T) {
	p, err := MRRFirst(MRRFirstSpec{Order: 2, WLSpacingNM: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if p.LambdaMaxNM != optics.CBandCenterNM {
		t.Errorf("default λn = %g", p.LambdaMaxNM)
	}
	if p.FilterOffsetNM != 0.1 || p.DeltaLambdaNM != 0.1 {
		t.Errorf("default offsets = %g, %g", p.FilterOffsetNM, p.DeltaLambdaNM)
	}
	if p.MZI.ILdB != 4.5 {
		t.Errorf("default IL = %g", p.MZI.ILdB)
	}
	if p.BitRateGbps != 1 || p.PulseWidthS != optics.PaperPulseWidthS || p.LasingEfficiency != 0.2 {
		t.Error("paper §V.C defaults not applied")
	}
}

func TestMRRFirstErrors(t *testing.T) {
	if _, err := MRRFirst(MRRFirstSpec{Order: 0, WLSpacingNM: 1}); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := MRRFirst(MRRFirstSpec{Order: 2, WLSpacingNM: -1}); err == nil {
		t.Error("negative spacing accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, spec := range []MRRFirstSpec{
		{Order: 2, WLSpacingNM: nan},
		{Order: 2, WLSpacingNM: inf},
		{Order: 2, WLSpacingNM: 1, TargetBER: nan},
		{Order: 2, WLSpacingNM: 1, TargetBER: 0.5},
		{Order: 2, WLSpacingNM: 1, TargetBER: 0.7},
		{Order: 2, WLSpacingNM: 1, TargetBER: -1},
		{Order: 2, WLSpacingNM: 1, MZIILdB: nan},
		{Order: 2, WLSpacingNM: 1, MZIILdB: inf},
		{Order: 2, WLSpacingNM: 1, FilterOffsetNM: nan},
		{Order: 2, WLSpacingNM: 1, DeltaLambdaNM: nan},
	} {
		if p, err := MRRFirst(spec); err == nil {
			t.Errorf("spacing %g, BER %g, IL %g, offset %g, Δλ %g: design accepted, probe %g mW",
				spec.WLSpacingNM, spec.TargetBER, spec.MZIILdB, spec.FilterOffsetNM, spec.DeltaLambdaNM, p.ProbePowerMW)
		}
	}
	// A spacing far below the ring linewidth closes the eye.
	if _, err := MRRFirst(MRRFirstSpec{Order: 2, WLSpacingNM: 0.02}); err == nil {
		t.Error("collapsed comb accepted")
	}
}

func TestMZIFirstXiaoAnchor(t *testing.T) {
	// §V.B: Xiao et al. (IL 6.5 dB, ER 7.5 dB) at 0.6 W pump and
	// 1e-6 BER → 0.26 mW probe. The derived spacing follows the
	// closed form OPpump·OTE·IL%·(1−ER%)/n ≈ 0.552 nm.
	p, err := MZIFirst(MZIFirstSpec{
		Order:       2,
		MZI:         optics.MZI{ILdB: 6.5, ERdB: 7.5},
		PumpPowerMW: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	il := optics.LossToLinear(6.5)
	er := optics.ExtinctionToLinear(7.5)
	wantSpacing := 600 * 0.01 * il * (1 - er) / 2
	if math.Abs(p.WLSpacingNM-wantSpacing) > 1e-9 {
		t.Errorf("spacing = %g, closed form %g", p.WLSpacingNM, wantSpacing)
	}
	if math.Abs(p.ProbePowerMW-0.26) > 0.005 {
		t.Errorf("probe = %g mW, paper 0.26", p.ProbePowerMW)
	}
	// Comb alignment holds by construction.
	if got := MustCircuit(p).AlignmentErrorNM(); got > 1e-3 {
		t.Errorf("alignment error = %g nm", got)
	}
}

func TestMZIFirstTrends(t *testing.T) {
	// §V.B: probe power rises as IL increases and as ER decreases.
	base := MZIFirstSpec{Order: 2, PumpPowerMW: 600}
	probe := func(il, er float64) float64 {
		s := base
		s.MZI = optics.MZI{ILdB: il, ERdB: er}
		p, err := MZIFirst(s)
		if err != nil {
			t.Fatalf("IL=%g ER=%g: %v", il, er, err)
		}
		return p.ProbePowerMW
	}
	if !(probe(7.0, 6.0) > probe(4.0, 6.0)) {
		t.Error("probe power did not rise with IL")
	}
	if !(probe(5.0, 4.5) > probe(5.0, 7.5)) {
		t.Error("probe power did not rise as ER fell")
	}
}

func TestMZIFirstErrors(t *testing.T) {
	dev := optics.MZI{ILdB: 5, ERdB: 6}
	if _, err := MZIFirst(MZIFirstSpec{Order: 0, MZI: dev, PumpPowerMW: 600}); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := MZIFirst(MZIFirstSpec{Order: 2, MZI: dev, PumpPowerMW: 0}); err == nil {
		t.Error("zero pump accepted")
	}
	if _, err := MZIFirst(MZIFirstSpec{Order: 2, MZI: optics.MZI{ILdB: -1}, PumpPowerMW: 600}); err == nil {
		t.Error("invalid MZI accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, spec := range []MZIFirstSpec{
		{Order: 2, MZI: optics.MZI{ILdB: 5, ERdB: nan}, PumpPowerMW: 600},
		{Order: 2, MZI: optics.MZI{ILdB: inf, ERdB: 6}, PumpPowerMW: 600},
		{Order: 2, MZI: dev, PumpPowerMW: nan},
		{Order: 2, MZI: dev, PumpPowerMW: inf},
		{Order: 2, MZI: dev, PumpPowerMW: 600, TargetBER: nan},
		{Order: 2, MZI: dev, PumpPowerMW: 600, TargetBER: 0.7},
		{Order: 2, MZI: dev, PumpPowerMW: 600, TargetBER: -1},
	} {
		if p, err := MZIFirst(spec); err == nil {
			t.Errorf("%v, pump %g mW, BER %g: design accepted, probe %g mW", spec.MZI, spec.PumpPowerMW, spec.TargetBER, p.ProbePowerMW)
		}
	}
	// Tiny pump power → comb tighter than the ring linewidth → eye
	// closed.
	if _, err := MZIFirst(MZIFirstSpec{Order: 2, MZI: dev, PumpPowerMW: 5}); err == nil {
		t.Error("collapsed comb accepted")
	}
}

func TestMZIFirstCombUniformity(t *testing.T) {
	p, err := MZIFirst(MZIFirstSpec{Order: 4, MZI: optics.MZI{ILdB: 5, ERdB: 6}, PumpPowerMW: 800})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= p.Order; i++ {
		if d := p.Lambda(i) - p.Lambda(i-1); math.Abs(d-p.WLSpacingNM) > 1e-9 {
			t.Errorf("comb not uniform at %d: %g", i, d)
		}
	}
	// Every data weight lands on its channel.
	if got := MustCircuit(p).AlignmentErrorNM(); got > 1e-3 {
		t.Errorf("alignment error = %g nm", got)
	}
}
