package core

import (
	"math"
	"strings"
	"testing"
)

func TestPaperParamsAnchors(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	// §V.A: minimum pump power 591.8 mW.
	if math.Abs(p.PumpPowerMW-591.8) > 0.5 {
		t.Errorf("pump = %g mW, paper says 591.8", p.PumpPowerMW)
	}
	// §V.A: extinction ratio 13.22 dB.
	if math.Abs(p.MZI.ERdB-13.22) > 0.05 {
		t.Errorf("ER = %g dB, paper says 13.22", p.MZI.ERdB)
	}
	// Wavelength plan: λ0=1548, λ1=1549, λ2=1550, λref=1550.1.
	want := []float64{1548, 1549, 1550}
	for i, w := range want {
		if got := p.Lambda(i); math.Abs(got-w) > 1e-9 {
			t.Errorf("λ%d = %g, want %g", i, got, w)
		}
	}
	if got := p.LambdaRefNM(); math.Abs(got-1550.1) > 1e-9 {
		t.Errorf("λref = %g", got)
	}
}

func TestParamsValidateErrors(t *testing.T) {
	base := PaperParams()
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"order", func(p *Params) { p.Order = 0 }},
		{"spacing", func(p *Params) { p.WLSpacingNM = 0 }},
		{"lambda", func(p *Params) { p.LambdaMaxNM = -1 }},
		{"offset", func(p *Params) { p.FilterOffsetNM = -0.1 }},
		{"delta", func(p *Params) { p.DeltaLambdaNM = 0 }},
		{"ote", func(p *Params) { p.OTE.OTENMPerMW = 0 }},
		{"pump", func(p *Params) { p.PumpPowerMW = -1 }},
		{"probe", func(p *Params) { p.ProbePowerMW = -1 }},
		{"bitrate", func(p *Params) { p.BitRateGbps = 0 }},
		{"efficiency", func(p *Params) { p.LasingEfficiency = 0 }},
		{"mzi", func(p *Params) { p.MZI.ILdB = -1 }},
		{"modshape", func(p *Params) { p.ModShape.A = 0 }},
		{"filtershape", func(p *Params) { p.FilterShape.R1 = 2 }},
		{"detector", func(p *Params) { p.Detector.ResponsivityAPerW = 0 }},
		{"fsr", func(p *Params) { p.Order = 8; p.WLSpacingNM = 1 }},
		{"spacing NaN", func(p *Params) { p.WLSpacingNM = math.NaN() }},
		{"spacing Inf", func(p *Params) { p.WLSpacingNM = math.Inf(1) }},
		{"lambda NaN", func(p *Params) { p.LambdaMaxNM = math.NaN() }},
		{"lambda Inf", func(p *Params) { p.LambdaMaxNM = math.Inf(1) }},
		{"offset NaN", func(p *Params) { p.FilterOffsetNM = math.NaN() }},
		{"delta NaN", func(p *Params) { p.DeltaLambdaNM = math.NaN() }},
		{"ote Inf", func(p *Params) { p.OTE.OTENMPerMW = math.Inf(1) }},
		{"pump NaN", func(p *Params) { p.PumpPowerMW = math.NaN() }},
		{"pump Inf", func(p *Params) { p.PumpPowerMW = math.Inf(1) }},
		{"probe NaN", func(p *Params) { p.ProbePowerMW = math.NaN() }},
		{"probe Inf", func(p *Params) { p.ProbePowerMW = math.Inf(1) }},
		{"bitrate NaN", func(p *Params) { p.BitRateGbps = math.NaN() }},
		{"pulse negative", func(p *Params) { p.PulseWidthS = -1e-12 }},
		{"pulse NaN", func(p *Params) { p.PulseWidthS = math.NaN() }},
		{"efficiency NaN", func(p *Params) { p.LasingEfficiency = math.NaN() }},
		{"mzi NaN", func(p *Params) { p.MZI.ERdB = math.NaN() }},
		{"modshape NaN", func(p *Params) { p.ModShape.R2 = math.NaN() }},
		{"detector Inf", func(p *Params) { p.Detector.NoiseCurrentA = math.Inf(1) }},
	}
	for _, c := range cases {
		p := base
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid params accepted", c.name)
		}
	}
}

func TestRingShapePresetsAreCalibrated(t *testing.T) {
	cases := []struct {
		name           string
		shape          RingShape
		wantFWHM, tolF float64
	}{
		{"fig5 modulator", Fig5ModulatorShape(), 0.215, 0.02},
		{"fig5 filter", Fig5FilterShape(), 0.182, 0.02},
		{"dense modulator", DenseModulatorShape(), 0.100, 0.01},
		{"dense filter", DenseFilterShape(), 0.160, 0.01},
		{"wide modulator", WideFSRModulatorShape(), 0.100, 0.01},
		{"wide filter", WideFSRFilterShape(), 0.160, 0.01},
	}
	for _, c := range cases {
		if err := c.shape.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		r := c.shape.At(1550)
		if got := r.FWHMNM(); math.Abs(got-c.wantFWHM) > c.tolF {
			t.Errorf("%s: FWHM = %g nm, want ~%g", c.name, got, c.wantFWHM)
		}
	}
	// The modulator presets must have the calibrated ~0.1 on-resonance
	// through floor (the OFF-state attenuation behind Fig. 5's levels).
	for _, s := range []RingShape{Fig5ModulatorShape(), DenseModulatorShape(), WideFSRModulatorShape()} {
		r := s.At(1550)
		if got := r.Through(1550, 1550); math.Abs(got-0.10) > 0.015 {
			t.Errorf("modulator through floor = %g, want ~0.10", got)
		}
	}
}

func TestBitPeriodAndThroughput(t *testing.T) {
	p := PaperParams()
	if got := p.BitPeriodS(); math.Abs(got-1e-9) > 1e-18 {
		t.Errorf("bit period = %g", got)
	}
	// §V.C: 1 GHz optics vs 100 MHz electronics = 10x.
	if got := p.SpeedupVsElectronic(100); math.Abs(got-10) > 1e-12 {
		t.Errorf("speedup = %g, want 10", got)
	}
	if got := p.ThroughputBitsPerSec(256); math.Abs(got-1e9/256) > 1e-3 {
		t.Errorf("throughput = %g", got)
	}
	if got := p.ThroughputBitsPerSec(0); got != 1e9 {
		t.Errorf("degenerate throughput = %g", got)
	}
}

func TestSpeedupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero reference clock did not panic")
		}
	}()
	PaperParams().SpeedupVsElectronic(0)
}

func TestDeviceLibrary(t *testing.T) {
	lib := DeviceLibrary()
	if len(lib) != 4 {
		t.Fatalf("library has %d devices", len(lib))
	}
	var xiao *MZIDevice
	for i := range lib {
		if err := lib[i].Dev.Validate(); err != nil {
			t.Errorf("%s: %v", lib[i].Name, err)
		}
		if strings.Contains(lib[i].Name, "Xiao") {
			xiao = &lib[i]
		}
	}
	if xiao == nil {
		t.Fatal("Xiao et al. missing")
	}
	// The §V.B anchor device: IL 6.5 dB, ER 7.5 dB, 60 Gb/s.
	if xiao.Dev.ILdB != 6.5 || xiao.Dev.ERdB != 7.5 || xiao.Dev.SpeedGbps != 60 {
		t.Errorf("Xiao device = %+v", xiao.Dev)
	}
}
