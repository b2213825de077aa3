package control

import (
	"fmt"
	"math"

	"repro/internal/stochastic"
)

// SiliconThermalShiftNMPerK is the typical thermo-optic resonance
// drift of a silicon micro-ring: ≈10 pm/K red shift.
const SiliconThermalShiftNMPerK = 0.010

// ThermalEnvironment produces the ambient temperature excursion seen
// by a photonic die as a function of time: a slow sinusoidal drift
// (package/board heating cycles) plus white jitter.
type ThermalEnvironment struct {
	// AmplitudeK is the peak ambient excursion.
	AmplitudeK float64
	// PeriodS is the drift period.
	PeriodS float64
	// JitterK is the standard deviation of fast fluctuations.
	JitterK float64

	noise *stochastic.SplitMix64
}

// NewThermalEnvironment seeds the jitter source.
func NewThermalEnvironment(amplitudeK, periodS, jitterK float64, seed uint64) (*ThermalEnvironment, error) {
	if amplitudeK < 0 || jitterK < 0 {
		return nil, fmt.Errorf("control: negative thermal magnitudes")
	}
	if periodS <= 0 {
		return nil, fmt.Errorf("control: period %g s not positive", periodS)
	}
	return &ThermalEnvironment{
		AmplitudeK: amplitudeK,
		PeriodS:    periodS,
		JitterK:    jitterK,
		noise:      stochastic.NewSplitMix64(seed),
	}, nil
}

// TemperatureK returns the ambient excursion at time t (relative to
// the calibration baseline).
func (e *ThermalEnvironment) TemperatureK(tS float64) float64 {
	drift := e.AmplitudeK * math.Sin(2*math.Pi*tS/e.PeriodS)
	// Centered uniform jitter scaled to the requested sigma
	// (uniform on [-√3σ, √3σ] has standard deviation σ).
	j := (e.noise.Next()*2 - 1) * math.Sqrt(3) * e.JitterK
	return drift + j
}

// Heater is a resistive micro-heater tuning a ring resonance. Power
// applied red-shifts the resonance with the given efficiency.
type Heater struct {
	// EfficiencyNMPerMW is the resonance shift per heater power
	// (typical silicon micro-heaters: ~0.25 nm/mW).
	EfficiencyNMPerMW float64
	// MaxPowerMW saturates the actuator.
	MaxPowerMW float64

	powerMW float64
}

// NewHeater validates the actuator parameters.
func NewHeater(effNMPerMW, maxMW float64) (*Heater, error) {
	if effNMPerMW <= 0 {
		return nil, fmt.Errorf("control: heater efficiency %g not positive", effNMPerMW)
	}
	if maxMW <= 0 {
		return nil, fmt.Errorf("control: heater max power %g not positive", maxMW)
	}
	return &Heater{EfficiencyNMPerMW: effNMPerMW, MaxPowerMW: maxMW}, nil
}

// SetPowerMW clamps and applies the heater drive.
func (h *Heater) SetPowerMW(p float64) {
	if p < 0 {
		p = 0
	}
	if p > h.MaxPowerMW {
		p = h.MaxPowerMW
	}
	h.powerMW = p
}

// PowerMW returns the applied drive.
func (h *Heater) PowerMW() float64 { return h.powerMW }

// ShiftNM returns the heater-induced red shift.
func (h *Heater) ShiftNM() float64 { return h.powerMW * h.EfficiencyNMPerMW }

// DriftedRing couples a ring resonance to the environment and a
// heater: instantaneous resonance = cold + thermal drift + heater
// shift.
type DriftedRing struct {
	ColdResonanceNM float64
	Env             *ThermalEnvironment
	Heater          *Heater
	// ThermalShiftNMPerK converts ambient excursion to resonance
	// drift; defaults to SiliconThermalShiftNMPerK via NewDriftedRing.
	ThermalShiftNMPerK float64
}

// NewDriftedRing wires the pieces with the silicon default.
func NewDriftedRing(coldNM float64, env *ThermalEnvironment, h *Heater) *DriftedRing {
	return &DriftedRing{
		ColdResonanceNM:    coldNM,
		Env:                env,
		Heater:             h,
		ThermalShiftNMPerK: SiliconThermalShiftNMPerK,
	}
}

// ResonanceNM returns the instantaneous resonance at time t.
func (r *DriftedRing) ResonanceNM(tS float64) float64 {
	return r.ColdResonanceNM +
		r.Env.TemperatureK(tS)*r.ThermalShiftNMPerK +
		r.Heater.ShiftNM()
}

// MisalignmentNM returns resonance − target: the error signal the
// calibration loop drives to zero.
func (r *DriftedRing) MisalignmentNM(tS, targetNM float64) float64 {
	return r.ResonanceNM(tS) - targetNM
}
