package core

import (
	"fmt"

	"repro/internal/optics"
)

// RingShape describes a micro-ring geometry independent of where its
// resonance is parked: coupling coefficients, round-trip amplitude
// and free spectral range. Instantiating it at a resonant wavelength
// yields an optics.Ring.
type RingShape struct {
	R1    float64 // input-bus self-coupling
	R2    float64 // drop-bus self-coupling
	A     float64 // single-pass amplitude transmission
	FSRNM float64 // free spectral range
}

// At returns the ring with its cold resonance at resonanceNM.
func (s RingShape) At(resonanceNM float64) optics.Ring {
	return optics.Ring{
		SelfCoupling1: s.R1,
		SelfCoupling2: s.R2,
		Amplitude:     s.A,
		ResonanceNM:   resonanceNM,
		FSRNM:         s.FSRNM,
	}
}

// Validate checks the shape at a nominal resonance.
func (s RingShape) Validate() error {
	return s.At(optics.CBandCenterNM).Validate()
}

// The paper publishes only resulting transmissions, never ring
// coupling coefficients, so the shapes below are calibrated to its
// quantitative anchors (see package doc).
//
// Fig5ModulatorShape / Fig5FilterShape reproduce the §V.A worked
// example at 1 nm spacing: per-channel totals ≈ (0.091, 0.004,
// 0.0002) in Fig. 5(a) and the 0.092–0.099 / 0.477–0.482 mW received
// bands of Fig. 5(c). The modulator FWHM is ≈0.21 nm so that a
// Δλ = 0.1 nm drive shift yields ≈0.52 through transmission.
func Fig5ModulatorShape() RingShape {
	return RingShape{R1: 0.95653, R2: 0.977672, A: 0.9995, FSRNM: 10}
}

// Fig5FilterShape is the add-drop filter matching Fig. 5's crosstalk
// levels (FWHM ≈ 0.18 nm: adjacent-channel drop ≈ 0.008).
func Fig5FilterShape() RingShape {
	return RingShape{R1: 0.971998, R2: 0.971998, A: 0.9995, FSRNM: 10}
}

// DenseModulatorShape / DenseFilterShape are the higher-Q rings used
// for the dense-WDM energy study of Fig. 7, where the wavelength
// spacing sweeps down to 0.1 nm (modulator FWHM ≈ 0.10 nm, filter
// FWHM ≈ 0.16 nm). With the Fig. 5 rings the eye would close over
// most of that sweep range.
func DenseModulatorShape() RingShape {
	return RingShape{R1: 0.97959, R2: 0.98980, A: 0.9995, FSRNM: 10}
}

// DenseFilterShape is the energy-study companion filter.
func DenseFilterShape() RingShape {
	return RingShape{R1: 0.97543, R2: 0.97543, A: 0.9995, FSRNM: 10}
}

// WideFSRModulatorShape / WideFSRFilterShape keep the dense preset's
// linewidths (FWHM ≈ 0.10 / 0.16 nm) but with a 40 nm free spectral
// range, as needed by the Fig. 7(b) order sweep: at 1 nm spacing an
// order-16 comb spans 16.1 nm, which must fit well inside one FSR.
// Physically this corresponds to smaller-radius rings with stronger
// coupling.
func WideFSRModulatorShape() RingShape {
	return RingShape{R1: 0.994877, R2: 0.997850, A: 0.9995, FSRNM: 40}
}

// WideFSRFilterShape is the wide-FSR companion filter.
func WideFSRFilterShape() RingShape {
	return RingShape{R1: 0.993987, R2: 0.993987, A: 0.9995, FSRNM: 40}
}

// MaxOrder is the largest polynomial order a circuit supports. Every
// analysis and evaluation path reads the circuit's (n+1)·2^(n+1)-entry
// received-power table, which grows too fast to build past n = 16;
// every design the paper evaluates (up to the Fig. 7(b) sweep's 16)
// fits.
const MaxOrder = 16

// Params is the complete parameter set of the generic architecture,
// mirroring the glossary of the paper's Fig. 4(b).
type Params struct {
	// Order is the polynomial degree n: n MZIs and n+1 probe
	// channels/modulating MRRs.
	Order int
	// WLSpacingNM is the probe wavelength spacing (Eq. 5).
	WLSpacingNM float64
	// LambdaMaxNM is λ_n, the right-most probe wavelength (the paper
	// uses 1550 nm).
	LambdaMaxNM float64
	// FilterOffsetNM is λref − λ_n, the filter's cold detuning above
	// the top probe (the paper uses 0.1 nm).
	FilterOffsetNM float64
	// DeltaLambdaNM is Δλ, the modulator resonance shift between the
	// OFF and ON coefficient states (0.1 nm per [14]).
	DeltaLambdaNM float64

	// MZI is the data-modulator device (IL and ER are the knobs the
	// design methods trade against laser power).
	MZI optics.MZI
	// ModShape and FilterShape are the micro-ring geometries.
	ModShape    RingShape
	FilterShape RingShape
	// OTE is the all-optical tuning efficiency of the filter.
	OTE optics.OTETuner

	// PumpPowerMW is OPLaser_pump (peak, at the source).
	PumpPowerMW float64
	// ProbePowerMW is OPLaser_probe per probe laser.
	ProbePowerMW float64
	// Detector converts received power to photocurrent (Eq. 8).
	Detector optics.Photodetector

	// BitRateGbps is the stream modulation speed (1 Gb/s in §V.C).
	BitRateGbps float64
	// PulseWidthS is the pump pulse width (26 ps, [15]); zero means a
	// CW pump.
	PulseWidthS float64
	// LasingEfficiency is the wall-plug efficiency of every laser.
	LasingEfficiency float64
}

// Validate reports the first violated constraint.
func (p Params) Validate() error {
	switch {
	case p.Order < 1:
		return fmt.Errorf("core: order %d < 1", p.Order)
	case p.Order > MaxOrder:
		return fmt.Errorf("core: order %d > MaxOrder %d", p.Order, MaxOrder)
	case p.WLSpacingNM <= 0:
		return fmt.Errorf("core: wavelength spacing %g nm not positive", p.WLSpacingNM)
	case p.LambdaMaxNM <= 0:
		return fmt.Errorf("core: λ_n = %g nm not positive", p.LambdaMaxNM)
	case p.FilterOffsetNM < 0:
		return fmt.Errorf("core: filter offset %g nm negative", p.FilterOffsetNM)
	case p.DeltaLambdaNM <= 0:
		return fmt.Errorf("core: Δλ = %g nm not positive", p.DeltaLambdaNM)
	case p.OTE.OTENMPerMW <= 0:
		return fmt.Errorf("core: OTE %g nm/mW not positive", p.OTE.OTENMPerMW)
	case p.PumpPowerMW < 0:
		return fmt.Errorf("core: pump power %g mW negative", p.PumpPowerMW)
	case p.ProbePowerMW < 0:
		return fmt.Errorf("core: probe power %g mW negative", p.ProbePowerMW)
	case p.BitRateGbps <= 0:
		return fmt.Errorf("core: bit rate %g Gb/s not positive", p.BitRateGbps)
	case p.LasingEfficiency <= 0 || p.LasingEfficiency > 1:
		return fmt.Errorf("core: lasing efficiency %g outside (0,1]", p.LasingEfficiency)
	}
	if err := p.MZI.Validate(); err != nil {
		return err
	}
	if err := p.ModShape.Validate(); err != nil {
		return fmt.Errorf("core: modulator shape: %w", err)
	}
	if err := p.FilterShape.Validate(); err != nil {
		return fmt.Errorf("core: filter shape: %w", err)
	}
	if err := p.Detector.Validate(); err != nil {
		return err
	}
	// The probe comb plus filter offset must fit well inside one FSR,
	// otherwise the "next resonance" aliases onto the comb.
	span := float64(p.Order)*p.WLSpacingNM + p.FilterOffsetNM
	if span >= p.FilterShape.FSRNM/2 {
		return fmt.Errorf("core: comb span %g nm too wide for filter FSR %g nm", span, p.FilterShape.FSRNM)
	}
	return nil
}

// BitPeriodS returns the bit slot duration.
func (p Params) BitPeriodS() float64 { return 1e-9 / p.BitRateGbps }

// LambdaRefNM returns the filter's cold resonance λref = λ_n + offset.
func (p Params) LambdaRefNM() float64 { return p.LambdaMaxNM + p.FilterOffsetNM }

// Lambda returns probe wavelength λ_i = λ_n − (n−i)·WLspacing.
func (p Params) Lambda(i int) float64 {
	return p.LambdaMaxNM - float64(p.Order-i)*p.WLSpacingNM
}

// PaperParams returns the §V.A 2nd-order design: WLspacing = 1 nm,
// λ2 = 1550 nm, λref = 1550.1 nm, OTE = 0.1 nm/10 mW, ILdB = 4.5,
// with the pump power (591.8 mW) and extinction ratio (13.22 dB)
// derived by the MRR-first method, 1 mW probes, and the Fig. 5 ring
// calibration.
func PaperParams() Params {
	p := Params{
		Order:            2,
		WLSpacingNM:      1.0,
		LambdaMaxNM:      1550.0,
		FilterOffsetNM:   0.1,
		DeltaLambdaNM:    0.1,
		MZI:              optics.MZI{ILdB: 4.5, ERdB: 13.22}, // ER per §V.A; recomputed by MRRFirst
		ModShape:         Fig5ModulatorShape(),
		FilterShape:      Fig5FilterShape(),
		OTE:              optics.PaperOTE,
		ProbePowerMW:     1.0,
		Detector:         DefaultDetector(),
		BitRateGbps:      1.0,
		PulseWidthS:      optics.PaperPulseWidthS,
		LasingEfficiency: optics.PaperLasingEfficiency,
	}
	// Pump sized by the MRR-first rule: enough power to shift the
	// filter across the whole comb through the constructive MZIs.
	shift := p.LambdaRefNM() - p.Lambda(0)
	p.PumpPowerMW = p.OTE.PowerForShiftMW(shift) / p.MZI.ILFraction()
	return p
}

// MZIDevice is a published Mach–Zehnder modulator, the device corpus
// behind the paper's Fig. 6(a) markers and Fig. 6(c) bars. IL/ER
// coordinates are read off Fig. 6(a); speed and phase-shifter length
// come from the Fig. 6(c) annotation.
type MZIDevice struct {
	Name string
	Dev  optics.MZI
}

// DeviceLibrary returns the four cited modulators.
func DeviceLibrary() []MZIDevice {
	return []MZIDevice{
		{Name: "Dong et al. (ref 6 in [19])", Dev: optics.MZI{ILdB: 4.8, ERdB: 6.4, SpeedGbps: 50, PhaseShifterLenMM: 1.0}},
		{Name: "Thomson et al. (ref 12 in [19])", Dev: optics.MZI{ILdB: 7.3, ERdB: 4.2, SpeedGbps: 40, PhaseShifterLenMM: 1.0}},
		{Name: "Dong et al. (ref 28 in [18])", Dev: optics.MZI{ILdB: 5.2, ERdB: 5.6, SpeedGbps: 40, PhaseShifterLenMM: 4.0}},
		{Name: "Xiao et al. [19]", Dev: optics.MZI{ILdB: 6.5, ERdB: 7.5, SpeedGbps: 60, PhaseShifterLenMM: 0.75}},
	}
}
