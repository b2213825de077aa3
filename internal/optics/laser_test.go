package optics

import (
	"math"
	"strings"
	"testing"
)

func TestCWLaserEnergy(t *testing.T) {
	l := CWLaser{WavelengthNM: 1550, PowerMW: 1, Efficiency: 0.2}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 mW / 0.2 = 5 mW electrical; over 1 ns => 5 pJ.
	if got := l.EnergyPerBitPJ(1e-9); math.Abs(got-5) > 1e-9 {
		t.Errorf("CW energy per bit = %g pJ, want 5", got)
	}
	if got := l.ElectricalPowerMW(); math.Abs(got-5) > 1e-12 {
		t.Errorf("electrical power = %g mW", got)
	}
}

func TestCWLaserValidate(t *testing.T) {
	bad := []CWLaser{
		{PowerMW: -1, Efficiency: 0.2},
		{PowerMW: 1, Efficiency: 0},
		{PowerMW: 1, Efficiency: 1.5},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad laser %d accepted", i)
		}
	}
}

func TestPulsedLaserEnergyPaperAnchor(t *testing.T) {
	// §V.A/V.C anchor: 591.8 mW pump, 26 ps pulse, 20 % efficiency
	// => 591.8e-3 W * 26e-12 s / 0.2 = 76.9 pJ per bit. This is the
	// 1 nm-spacing n=2 bar of Fig. 7(b).
	l := PulsedLaser{WavelengthNM: 1540, PeakPowerMW: 591.8, PulseWidthS: PaperPulseWidthS, Efficiency: PaperLasingEfficiency}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	got := l.EnergyPerBitPJ(1e-9)
	if math.Abs(got-76.934) > 0.05 {
		t.Errorf("pulsed pump energy = %g pJ, want ~76.93", got)
	}
}

func TestPulsedLaserTruncatedPulse(t *testing.T) {
	l := PulsedLaser{PeakPowerMW: 200, PulseWidthS: 26e-12, Efficiency: 0.2}
	full := l.EnergyPerBitPJ(1e-9)
	trunc := l.EnergyPerBitPJ(13e-12)
	if math.Abs(trunc-full/2) > 1e-9 {
		t.Errorf("truncated pulse energy %g, want half of %g", trunc, full)
	}
}

func TestPulsedLaserValidate(t *testing.T) {
	bad := []PulsedLaser{
		{PeakPowerMW: -1, PulseWidthS: 1e-12, Efficiency: 0.2},
		{PeakPowerMW: 1, PulseWidthS: 0, Efficiency: 0.2},
		{PeakPowerMW: 1, PulseWidthS: 1e-12, Efficiency: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad pulsed laser %d accepted", i)
		}
	}
}

func TestLaserStrings(t *testing.T) {
	cw := CWLaser{WavelengthNM: 1550, PowerMW: 0.26, Efficiency: 0.2}.String()
	if !strings.Contains(cw, "1550") {
		t.Errorf("CW String = %q", cw)
	}
	pl := PulsedLaser{WavelengthNM: 1540, PeakPowerMW: 591.8, PulseWidthS: 26e-12, Efficiency: 0.2}.String()
	if !strings.Contains(pl, "26ps") {
		t.Errorf("Pulsed String = %q", pl)
	}
}
