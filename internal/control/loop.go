package control

import (
	"fmt"

	"repro/internal/optics"
	"repro/internal/stochastic"
)

// Monitor is the calibration photodiode: it taps a small fraction of
// the filter's drop port while a calibration probe at the target
// wavelength is on, and reads it with Gaussian noise.
type Monitor struct {
	// TapFraction is the power fraction diverted to the monitor
	// (typically a few percent).
	TapFraction float64
	// NoiseMW is the read noise standard deviation.
	NoiseMW float64

	noise *stochastic.Gaussian
}

// NewMonitor validates and seeds the monitor.
func NewMonitor(tap, noiseMW float64, seed uint64) (*Monitor, error) {
	if tap <= 0 || tap > 1 {
		return nil, fmt.Errorf("control: tap fraction %g outside (0,1]", tap)
	}
	if noiseMW < 0 {
		return nil, fmt.Errorf("control: negative monitor noise")
	}
	return &Monitor{
		TapFraction: tap,
		NoiseMW:     noiseMW,
		noise:       stochastic.NewGaussian(stochastic.NewSplitMix64(seed)),
	}, nil
}

// Read returns the monitored power for a drop-port power in mW.
func (m *Monitor) Read(dropMW float64) float64 {
	v := dropMW*m.TapFraction + m.noise.NextScaled(m.NoiseMW)
	if v < 0 {
		v = 0
	}
	return v
}

// Loop is the dither-and-lock calibration controller: it hill-climbs
// the heater drive to maximize the monitored drop power of a
// calibration probe parked at the target wavelength, which aligns the
// drifting ring resonance to that target.
type Loop struct {
	// Ring is the drifting plant.
	Ring *DriftedRing
	// Shape gives the drop-port lineshape used by the monitor
	// (evaluated at the instantaneous resonance).
	Shape optics.Ring
	// TargetNM is the wavelength the resonance must track.
	TargetNM float64
	// ProbeMW is the calibration probe power.
	ProbeMW float64
	// Monitor reads the tapped drop port.
	Monitor *Monitor
	// DitherMW is the heater perturbation used to estimate the
	// gradient; GainMW2PerMW scales the gradient into a heater-drive
	// update.
	DitherMW     float64
	GainMW2PerMW float64
	// StepS is the calibration period (time between corrections).
	StepS float64

	heaterEnergyPJ float64
	// peakMW remembers the best monitored power seen during
	// acquisition; falling far below it re-triggers a sweep.
	peakMW float64
}

// NewLoop assembles a controller with sane defaults for zero-valued
// tuning knobs (dither 0.05 mW, gain 40, step 1 µs).
func NewLoop(ring *DriftedRing, shape optics.Ring, targetNM, probeMW float64, mon *Monitor) (*Loop, error) {
	if ring == nil || mon == nil {
		return nil, fmt.Errorf("control: nil ring or monitor")
	}
	if probeMW <= 0 {
		return nil, fmt.Errorf("control: probe power %g not positive", probeMW)
	}
	l := &Loop{
		Ring:         ring,
		Shape:        shape,
		TargetNM:     targetNM,
		ProbeMW:      probeMW,
		Monitor:      mon,
		DitherMW:     0.05,
		GainMW2PerMW: 1,
		StepS:        1e-6,
	}
	// Bias the heater mid-range so the loop can correct drift in
	// both directions (heaters only push one way).
	ring.Heater.SetPowerMW(ring.Heater.MaxPowerMW / 2)
	return l, nil
}

// acquire sweeps the full heater range and parks the drive at the
// monitored-power maximum — the lock-acquisition phase that precedes
// dither tracking. It returns the peak reading.
func (l *Loop) acquire(tS float64) float64 {
	const sweepPoints = 128
	bestH, bestP := 0.0, -1.0
	for k := 0; k <= sweepPoints; k++ {
		h := l.Ring.Heater.MaxPowerMW * float64(k) / sweepPoints
		if p := l.measure(tS, h); p > bestP {
			bestH, bestP = h, p
		}
	}
	l.Ring.Heater.SetPowerMW(bestH)
	l.peakMW = bestP
	return bestP
}

// measure reads the monitor with the heater at a trial drive.
func (l *Loop) measure(tS, heaterMW float64) float64 {
	saved := l.Ring.Heater.PowerMW()
	l.Ring.Heater.SetPowerMW(heaterMW)
	res := l.Ring.ResonanceNM(tS)
	drop := l.ProbeMW * l.Shape.Drop(l.TargetNM, res)
	l.Ring.Heater.SetPowerMW(saved)
	return l.Monitor.Read(drop)
}

// Sample is one calibration period's outcome.
type Sample struct {
	TimeS          float64
	MisalignNM     float64
	HeaterMW       float64
	MonitorMW      float64
	UncontrolledNM float64
}

// Run executes `steps` calibration periods and returns the recorded
// trajectory. Heater energy is accumulated into EnergyPJ.
func (l *Loop) Run(steps int) []Sample {
	out := make([]Sample, 0, steps)
	for k := 0; k < steps; k++ {
		t := float64(k) * l.StepS
		// Acquisition: on the first step, or whenever the monitored
		// power collapses below half the acquired peak (lost lock),
		// sweep the heater range for the maximum.
		if l.peakMW == 0 || l.measure(t, l.Ring.Heater.PowerMW()) < 0.5*l.peakMW {
			l.acquire(t)
		}
		h := l.Ring.Heater.PowerMW()
		// Two-point gradient estimate via heater dither, then a
		// bounded hill-climb step (tracking phase).
		up := l.measure(t, h+l.DitherMW)
		dn := l.measure(t, h-l.DitherMW)
		grad := (up - dn) / (2 * l.DitherMW)
		step := l.GainMW2PerMW * grad
		if max := 4 * l.DitherMW; step > max {
			step = max
		} else if step < -max {
			step = -max
		}
		l.Ring.Heater.SetPowerMW(h + step)

		l.heaterEnergyPJ += optics.EnergyPJ(l.Ring.Heater.PowerMW(), l.StepS)
		out = append(out, Sample{
			TimeS:      t,
			MisalignNM: l.Ring.MisalignmentNM(t, l.TargetNM),
			HeaterMW:   l.Ring.Heater.PowerMW(),
			MonitorMW:  l.measure(t, l.Ring.Heater.PowerMW()),
			UncontrolledNM: l.Ring.ColdResonanceNM +
				l.Ring.Env.TemperatureK(t)*l.Ring.ThermalShiftNMPerK - l.TargetNM,
		})
	}
	return out
}

// EnergyPJ returns the heater energy spent so far — the energy side
// of the paper's energy–area calibration trade-off.
func (l *Loop) EnergyPJ() float64 { return l.heaterEnergyPJ }
