package core

import (
	"fmt"
	"io"

	"repro/internal/numeric"
	"repro/internal/optics"
)

// LinkStage is one entry of the optical power budget.
type LinkStage struct {
	Name string
	// LossDB is the stage's power loss in dB (positive).
	LossDB float64
	// CumulativePowerMW is the power after this stage.
	CumulativePowerMW float64
}

// LinkBudget traces the worst-case probe path through the circuit —
// the quantitative version of the architecture walk-through of
// Fig. 3(a): probe laser → coefficient modulator (ON, detuned by Δλ)
// → the other n modulators (OFF, at their comb detunings) → filter
// drop (aligned) → band-pass filter → detector. The pump path is
// reported separately: laser → 1:n splitter → MZI (constructive) →
// n:1 combiner → filter tuning.
type LinkBudget struct {
	Probe []LinkStage
	Pump  []LinkStage
}

// BudgetBPF is the pump-rejection filter assumed in front of the
// detector for budgeting (the paper neglects its in-band loss; we
// default to 0.5 dB in-band, 40 dB rejection).
var BudgetBPF = optics.BandPassFilter{
	CenterNM:     optics.CBandCenterNM - 1,
	BandwidthNM:  8,
	InBandLossDB: 0.5,
	RejectionDB:  40,
}

// BudgetRouting is the on-chip waveguide routing assumed along the
// probe path (also neglected by the paper's model).
var BudgetRouting = optics.TypicalRouting()

// ComputeLinkBudget evaluates the budget for the worst probe channel
// (the channel with the smallest Eq. 8 margin).
func (c *Circuit) ComputeLinkBudget() LinkBudget {
	_, worst := c.WorstCaseDelta()
	var lb LinkBudget

	// Probe path for channel `worst` transmitted as '1'.
	lam := c.P.Lambda(worst)
	p := c.P.ProbePowerMW
	add := func(list *[]LinkStage, name string, factor float64) {
		if factor > 1 {
			factor = 1
		}
		p *= factor
		*list = append(*list, LinkStage{
			Name:              name,
			LossDB:            -numeric.LinearToDB(factor),
			CumulativePowerMW: p,
		})
	}
	add(&lb.Probe, "probe laser", 1)
	for w, ring := range c.Modulators {
		res := ring.ResonanceNM
		state := "OFF"
		if w == worst {
			res -= c.P.DeltaLambdaNM
			state = "ON"
		}
		add(&lb.Probe, fmt.Sprintf("modulator MRR%d (%s)", w, state), ring.Through(lam, res))
	}
	add(&lb.Probe, "waveguide routing", BudgetRouting.Transmission())
	add(&lb.Probe, "filter drop (aligned)", c.Filter.Drop(lam, lam))
	add(&lb.Probe, "pump-rejection BPF", BudgetBPF.Transmission(lam))

	// Pump path for the all-constructive state (largest shift).
	p = c.P.PumpPowerMW
	add(&lb.Pump, "pump laser", 1)
	add(&lb.Pump, fmt.Sprintf("1:%d splitter + MZIs (constructive) + combiner", c.P.Order),
		c.Bank.Transmission(make([]int, c.P.Order)))
	return lb
}

// Render writes the budget as two tables.
func (lb LinkBudget) Render(w io.Writer) error {
	write := func(title string, stages []LinkStage) error {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
		for _, s := range stages {
			if _, err := fmt.Fprintf(w, "  %-45s %6.2f dB  -> %10.6f mW\n",
				s.Name, s.LossDB, s.CumulativePowerMW); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("probe path (worst channel, '1'):", lb.Probe); err != nil {
		return err
	}
	return write("pump path (all-constructive state):", lb.Pump)
}
