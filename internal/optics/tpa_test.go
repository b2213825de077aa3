package optics

import (
	"fmt"
	"math"
	"testing"
)

func TestPaperOTEAnchor(t *testing.T) {
	// [14]: a 0.1 nm shift for an average 10 mW pump.
	if got := PaperOTE.ShiftNM(10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("PaperOTE.ShiftNM(10) = %g, want 0.1", got)
	}
}

func TestOTETunerInversion(t *testing.T) {
	tuner := OTETuner{OTENMPerMW: 0.01}
	for _, shift := range []float64{0.1, 0.5, 2.1} {
		p := tuner.PowerForShiftMW(shift)
		if got := tuner.ShiftNM(p); math.Abs(got-shift) > 1e-12 {
			t.Errorf("round trip shift %g -> %g", shift, got)
		}
	}
	if got := tuner.PowerForShiftMW(0); got != 0 {
		t.Errorf("zero shift power = %g", got)
	}
	if got := tuner.ShiftNM(-5); got != 0 {
		t.Errorf("negative power shift = %g", got)
	}
}

func TestOTEPaperPumpSizing(t *testing.T) {
	// §V.A: reaching λ0 requires shifting the filter by
	// λref - λ0 = 1550.1 - 1548 = 2.1 nm. At the raw OTE this would
	// take 210 mW of *delivered* power; the quoted 591.8 mW is the
	// source power before the 4.5 dB MZI insertion loss, checked in
	// internal/core. Here we verify the delivered-power arithmetic.
	if got := PaperOTE.PowerForShiftMW(2.1); math.Abs(got-210) > 1e-9 {
		t.Errorf("delivered power for 2.1nm = %g mW, want 210", got)
	}
}

func TestTPAModelLinearInPower(t *testing.T) {
	m := TPAModel{N0: 3.2, N2M2PerW: 1e-17, CrossSectionM2: 1e-13, GroupIndex: 3.6}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	s1 := m.ShiftNM(1550, 10)
	s2 := m.ShiftNM(1550, 20)
	if math.Abs(s2-2*s1) > 1e-12 {
		t.Errorf("TPA shift not linear: %g vs %g", s1, s2)
	}
	if m.ShiftNM(1550, -1) != 0 {
		t.Error("negative power should clamp to zero shift")
	}
}

func TestTPAModelValidate(t *testing.T) {
	if err := (TPAModel{N0: 0, CrossSectionM2: 1}).Validate(); err == nil {
		t.Error("zero n0 accepted")
	}
	if err := (TPAModel{N0: 3, CrossSectionM2: 0}).Validate(); err == nil {
		t.Error("zero cross-section accepted")
	}
}

// TPAModel is the device-level two-photon-absorption tuning model of
// the paper's Eq. (4): the effective index under a pump of power P is
//
//	n_eff = n0 + n2 * P / S
//
// where n0 and n2 are the linear and non-linear refractive indices
// and S is the effective cross-sectional area of the filter
// waveguide. The resonance shift follows from dλ/λ = dn/n_g. Eq. (4)
// is linear in P, which is what lets the package tune with the linear
// OTETuner; TestTPAModelLinearInPower checks that.
type TPAModel struct {
	// N0 is the linear effective refractive index (silicon ≈ 2.4
	// effective, GaAs-AlGaAs rings in [14] ≈ 3.2).
	N0 float64
	// N2M2PerW is the non-linear (Kerr/TPA-induced) index in m²/W.
	N2M2PerW float64
	// CrossSectionM2 is the effective modal cross-section S in m².
	CrossSectionM2 float64
	// GroupIndex n_g relates index change to fractional wavelength
	// shift; if zero, N0 is used.
	GroupIndex float64
}

// Validate reports whether the model parameters are physical.
func (m TPAModel) Validate() error {
	if m.N0 <= 0 {
		return fmt.Errorf("optics: TPA n0 = %g not positive", m.N0)
	}
	if m.CrossSectionM2 <= 0 {
		return fmt.Errorf("optics: TPA cross-section = %g not positive", m.CrossSectionM2)
	}
	return nil
}

// EffectiveIndex returns n_eff for a pump power in mW (Eq. 4).
func (m TPAModel) EffectiveIndex(pumpMW float64) float64 {
	if pumpMW < 0 {
		pumpMW = 0
	}
	return m.N0 + m.N2M2PerW*MilliwattsToWatts(pumpMW)/m.CrossSectionM2
}

// ShiftNM returns the resonance shift at lambdaNM for a pump power in
// mW. A negative N2 (free-carrier dominated) produces the blue shift
// described in the paper; the magnitude is returned so it composes
// with OTETuner conventions.
func (m TPAModel) ShiftNM(lambdaNM, pumpMW float64) float64 {
	ng := m.GroupIndex
	if ng == 0 {
		ng = m.N0
	}
	dn := m.EffectiveIndex(pumpMW) - m.N0
	shift := lambdaNM * dn / ng
	if shift < 0 {
		shift = -shift
	}
	return shift
}
