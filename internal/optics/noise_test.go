package optics

import (
	"fmt"
	"math"
	"testing"
)

func paperishNoise() NoiseModel {
	return NoiseModel{
		ThermalCurrentA:   2e-5,
		ResponsivityAPerW: 1,
		BandwidthHz:       1e9,
		RINPerHz:          1e-15,
	}
}

func TestNoiseModelValidate(t *testing.T) {
	if err := paperishNoise().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []NoiseModel{
		{ThermalCurrentA: 0, ResponsivityAPerW: 1, BandwidthHz: 1e9},
		{ThermalCurrentA: 1e-5, ResponsivityAPerW: 0, BandwidthHz: 1e9},
		{ThermalCurrentA: 1e-5, ResponsivityAPerW: 1, BandwidthHz: 0},
		{ThermalCurrentA: 1e-5, ResponsivityAPerW: 1, BandwidthHz: 1e9, RINPerHz: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestNoiseGrowsWithPower(t *testing.T) {
	m := paperishNoise()
	prev := m.TotalCurrentA(0)
	if math.Abs(prev-m.ThermalCurrentA) > 1e-18 {
		t.Errorf("dark noise %g != thermal floor %g", prev, m.ThermalCurrentA)
	}
	for _, p := range []float64{0.1, 1, 10, 100} {
		cur := m.TotalCurrentA(p)
		if cur <= prev {
			t.Fatalf("noise not increasing at %g mW", p)
		}
		prev = cur
	}
	if got := m.TotalCurrentA(-5); got != m.TotalCurrentA(0) {
		t.Error("negative power not clamped")
	}
}

func TestThermalLimitedAtPaperPowers(t *testing.T) {
	// The paper's received powers (~0.1-0.5 mW) sit in the
	// thermal-limited regime, justifying Eq. (8)'s constant i_n.
	m := paperishNoise()
	// The thermal floor's share of the total noise variance.
	thermal := func(powerMW float64) float64 {
		tot := m.TotalCurrentA(powerMW)
		return m.ThermalCurrentA * m.ThermalCurrentA / (tot * tot)
	}
	if f := thermal(0.5); f < 0.85 {
		t.Errorf("thermal fraction %g at 0.5 mW; constant-i_n assumption shaky", f)
	}
	// At watt-level powers RIN/shot dominate and the assumption
	// breaks — the regime the paper avoids.
	if f := thermal(1000); f > 0.5 {
		t.Errorf("thermal fraction %g at 1 W; model insensitive to power", f)
	}
}

func TestNoiseSNRSublinear(t *testing.T) {
	// Doubling both signal swing and average power less than doubles
	// the SNR once power-dependent noise matters.
	m := paperishNoise()
	lo := m.SNR(0.4, 50)
	hi := m.SNR(0.8, 100)
	if hi >= 2*lo {
		t.Errorf("SNR scaled superlinearly: %g -> %g", lo, hi)
	}
	// In the thermal-limited regime it is ~linear.
	lo = m.SNR(0.4, 0.25)
	hi = m.SNR(0.8, 0.5)
	if r := hi / lo; math.Abs(r-2) > 0.1 {
		t.Errorf("thermal-regime scaling %g, want ~2", r)
	}
}

func TestEffectiveDetectorConsistency(t *testing.T) {
	m := paperishNoise()
	d := m.EffectiveDetector(0.3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.NoiseCurrentA-m.TotalCurrentA(0.3)) > 1e-18 {
		t.Error("lumped noise mismatch")
	}
	// The lumped detector agrees with the full model at the
	// operating point.
	want := m.SNR(0.1, 0.3)
	if got := d.SNR(0.1); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("lumped SNR %g vs model %g", got, want)
	}
}

// NoiseModel decomposes the photodetector noise current into its
// physical contributions, refining the single lumped i_n of the
// paper's Eq. (8):
//
//	i_n² = i_thermal² + i_shot²(P) + i_RIN²(P)
//
// with shot noise i_shot² = 2·q·R·P·B and laser relative intensity
// noise i_RIN² = (R·P)²·RIN·B. Because two of the three terms grow
// with received power, the effective SNR is sublinear in probe power
// at high power — the paper's constant-i_n model is the low-power
// limit, which the calibration regime satisfies:
// TestThermalLimitedAtPaperPowers quantifies the deviation.
type NoiseModel struct {
	// ThermalCurrentA is the power-independent noise floor.
	ThermalCurrentA float64
	// ResponsivityAPerW is the detector responsivity.
	ResponsivityAPerW float64
	// BandwidthHz is the receiver bandwidth B (1 GHz for the paper's
	// bit rate).
	BandwidthHz float64
	// RINPerHz is the laser relative intensity noise (linear, per
	// hertz). Typical DFB lasers: 1e-15 ... 1e-14 (i.e. −150 to
	// −140 dB/Hz).
	RINPerHz float64
}

// Validate reports whether the model is physical.
func (m NoiseModel) Validate() error {
	if m.ThermalCurrentA <= 0 {
		return fmt.Errorf("optics: thermal current %g not positive", m.ThermalCurrentA)
	}
	if m.ResponsivityAPerW <= 0 {
		return fmt.Errorf("optics: responsivity %g not positive", m.ResponsivityAPerW)
	}
	if m.BandwidthHz <= 0 {
		return fmt.Errorf("optics: bandwidth %g not positive", m.BandwidthHz)
	}
	if m.RINPerHz < 0 {
		return fmt.Errorf("optics: negative RIN")
	}
	return nil
}

// elementaryCharge in coulombs.
const elementaryCharge = 1.602176634e-19

// TotalCurrentA returns the RMS noise current at a received power in
// mW.
func (m NoiseModel) TotalCurrentA(powerMW float64) float64 {
	if powerMW < 0 {
		powerMW = 0
	}
	pw := MilliwattsToWatts(powerMW)
	sig := m.ResponsivityAPerW * pw
	shot2 := 2 * elementaryCharge * sig * m.BandwidthHz
	rin2 := sig * sig * m.RINPerHz * m.BandwidthHz
	th2 := m.ThermalCurrentA * m.ThermalCurrentA
	return math.Sqrt(th2 + shot2 + rin2)
}

// SNR returns the signal-to-noise ratio for a power difference
// deltaMW when the average received power is avgMW (shot and RIN
// scale with the average, not the swing).
func (m NoiseModel) SNR(deltaMW, avgMW float64) float64 {
	n := m.TotalCurrentA(avgMW)
	return m.ResponsivityAPerW * MilliwattsToWatts(deltaMW) / n
}

// EffectiveDetector lumps the model at an operating power into the
// constant-i_n Photodetector of Eq. (8).
func (m NoiseModel) EffectiveDetector(operatingMW float64) Photodetector {
	return Photodetector{
		ResponsivityAPerW: m.ResponsivityAPerW,
		NoiseCurrentA:     m.TotalCurrentA(operatingMW),
	}
}
