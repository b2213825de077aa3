package optics

import (
	"fmt"
)

// CWLaser is a continuous-wave laser source emitting constant optical
// power at a fixed wavelength. Efficiency is the wall-plug (lasing)
// efficiency: electrical power drawn = optical power / Efficiency.
// The paper assumes 20 % lasing efficiency for all sources (§V.C).
type CWLaser struct {
	WavelengthNM float64
	PowerMW      float64
	Efficiency   float64
}

// Validate reports whether the laser parameters are physical.
func (l CWLaser) Validate() error {
	if l.PowerMW < 0 {
		return fmt.Errorf("optics: CW laser power %g mW negative", l.PowerMW)
	}
	if l.Efficiency <= 0 || l.Efficiency > 1 {
		return fmt.Errorf("optics: lasing efficiency %g outside (0,1]", l.Efficiency)
	}
	return nil
}

// ElectricalPowerMW returns the wall-plug power drawn.
func (l CWLaser) ElectricalPowerMW() float64 {
	return l.PowerMW / l.Efficiency
}

// EnergyPerBitPJ returns the electrical energy consumed per bit slot
// of the given duration, in picojoules. A CW laser burns power for
// the full slot.
func (l CWLaser) EnergyPerBitPJ(bitPeriodS float64) float64 {
	return EnergyPJ(l.ElectricalPowerMW(), bitPeriodS)
}

// String implements fmt.Stringer.
func (l CWLaser) String() string {
	return fmt.Sprintf("CWLaser(λ=%.3fnm, %.3fmW, η=%.0f%%)", l.WavelengthNM, l.PowerMW, l.Efficiency*100)
}

// PulsedLaser is a pulse-based pump laser emitting one rectangular
// pulse of PeakPowerMW and width PulseWidthS per bit slot. The paper
// (§V.C) adopts the 26 ps pulses of Van et al. [15] to cut the pump
// laser's duty cycle, which is the dominant energy saving of the
// design.
type PulsedLaser struct {
	WavelengthNM float64
	PeakPowerMW  float64
	PulseWidthS  float64
	Efficiency   float64
}

// Validate reports whether the laser parameters are physical.
func (l PulsedLaser) Validate() error {
	if l.PeakPowerMW < 0 {
		return fmt.Errorf("optics: pulsed laser peak power %g mW negative", l.PeakPowerMW)
	}
	if l.PulseWidthS <= 0 {
		return fmt.Errorf("optics: pulse width %g s not positive", l.PulseWidthS)
	}
	if l.Efficiency <= 0 || l.Efficiency > 1 {
		return fmt.Errorf("optics: lasing efficiency %g outside (0,1]", l.Efficiency)
	}
	return nil
}

// EnergyPerBitPJ returns the electrical energy per bit slot in pJ:
// one pulse of PeakPowerMW lasting PulseWidthS, divided by the lasing
// efficiency. The bit period only matters if it is shorter than the
// pulse (the pulse is then truncated).
func (l PulsedLaser) EnergyPerBitPJ(bitPeriodS float64) float64 {
	w := l.PulseWidthS
	if bitPeriodS > 0 && bitPeriodS < w {
		w = bitPeriodS
	}
	return EnergyPJ(l.PeakPowerMW/l.Efficiency, w)
}

// String implements fmt.Stringer.
func (l PulsedLaser) String() string {
	return fmt.Sprintf("PulsedLaser(λ=%.3fnm, peak %.1fmW, %.0fps pulses, η=%.0f%%)",
		l.WavelengthNM, l.PeakPowerMW, l.PulseWidthS*1e12, l.Efficiency*100)
}

// PaperPulseWidthS is the 26 ps pump pulse width adopted from [15].
const PaperPulseWidthS = 26e-12

// PaperLasingEfficiency is the 20 % wall-plug efficiency assumed in
// the paper's energy study (§V.C).
const PaperLasingEfficiency = 0.20
