package core

import (
	"fmt"

	"repro/internal/stochastic"
)

// ParallelArray is the spatially parallel implementation the paper's
// §V.C suggests for leveraging the optical circuit's power-density
// headroom: `lanes` identical units, each with independent
// randomness. It models the hardware's lane accounting (throughput,
// laser power, power density) behind dse.ParallelScaling; software
// batches run on an engine through Unit.EvaluateBatch.
type ParallelArray struct {
	Units []*Unit
}

// NewParallelArray replicates the unit design across lanes. Each lane
// gets an independent randomness seed; they share the (stateless)
// circuit.
func NewParallelArray(c *Circuit, poly stochastic.BernsteinPoly, lanes int, seed uint64) (*ParallelArray, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("core: lane count %d < 1", lanes)
	}
	a := &ParallelArray{Units: make([]*Unit, lanes)}
	for i := range a.Units {
		u, err := NewUnit(c, poly, seed+uint64(i)*0x9E3779B97F4A7C15)
		if err != nil {
			return nil, err
		}
		a.Units[i] = u
	}
	return a, nil
}

// Lanes returns the parallelism degree.
func (a *ParallelArray) Lanes() int { return len(a.Units) }

// ThroughputResultsPerSec returns the aggregate output rate.
func (a *ParallelArray) ThroughputResultsPerSec(streamLen int) float64 {
	return float64(len(a.Units)) * a.Units[0].Circuit.P.ThroughputBitsPerSec(streamLen)
}

// TotalPowerMW returns the aggregate electrical laser power draw: per
// lane, the pump's duty-cycled average plus all probe lasers, divided
// by the lasing efficiency.
func (a *ParallelArray) TotalPowerMW() float64 {
	p := a.Units[0].Circuit.P
	bitT := p.BitPeriodS()
	pumpAvg := p.PumpPowerMW
	if p.PulseWidthS > 0 && p.PulseWidthS < bitT {
		pumpAvg *= p.PulseWidthS / bitT
	}
	perLane := (pumpAvg + float64(p.Order+1)*p.ProbePowerMW) / p.LasingEfficiency
	return perLane * float64(len(a.Units))
}

// AreaMM2 estimates one unit's die area with a coarse layout model:
// each MZI occupies its phase-shifter length times a 0.10 mm routing
// pitch; each micro-ring (n+1 modulators plus the filter) and the
// photodetector occupy 0.01 mm² each. The estimate only serves
// relative power-density comparisons; absolute layouts vary widely.
func (p Params) AreaMM2() float64 {
	psl := p.MZI.PhaseShifterLenMM
	if psl <= 0 {
		psl = 1 // typical mm-scale shifter when the device omits it
	}
	mzi := float64(p.Order) * psl * 0.10
	rings := float64(p.Order+2) * 0.01
	const detector = 0.01
	return mzi + rings + detector
}

// PowerDensityMWPerMM2 returns the array's electrical power per die
// area — the quantity whose headroom the paper proposes spending on
// parallel lanes.
func (a *ParallelArray) PowerDensityMWPerMM2() float64 {
	area := a.Units[0].Circuit.P.AreaMM2() * float64(len(a.Units))
	return a.TotalPowerMW() / area
}
