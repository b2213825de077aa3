package dse

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optics"
	"repro/internal/stochastic"
)

// RingSensitivityRow measures how the Fig. 7 energy optimum moves
// when the filter linewidth changes (the paper never states ring
// geometry; this quantifies how much that omission matters).
type RingSensitivityRow struct {
	// FWHMScale multiplies the dense preset's filter linewidth.
	FWHMScale float64
	// FilterFWHMNM is the resulting linewidth.
	FilterFWHMNM float64
	// OptSpacingNM and OptTotalPJ describe the resulting optimum.
	OptSpacingNM float64
	OptTotalPJ   float64
	Feasible     bool
}

// RingSensitivity sweeps the filter-linewidth scale on e under ctx
// (one energy-optimum search per scale, run on engine.Serial inside
// its item). Scales are realized by adjusting the symmetric coupling r
// so the analytic FWHM hits the target; an unrealizable or infeasible
// scale is a row with Feasible false, not an error.
func RingSensitivity(ctx context.Context, e engine.Engine, scales []float64) ([]RingSensitivityRow, error) {
	base := core.DenseFilterShape()
	baseFWHM := base.At(optics.CBandCenterNM).FWHMNM()
	return SweepCtx(ctx, e, len(scales), func(i int) (RingSensitivityRow, error) {
		s := scales[i]
		row := RingSensitivityRow{FWHMScale: s}
		shape, err := filterShapeWithFWHM(base, baseFWHM*s)
		if err == nil {
			row.FilterFWHMNM = shape.At(optics.CBandCenterNM).FWHMNM()
			m := core.EnergyModel{Spec: core.MRRFirstSpec{Order: 2, FilterShape: shape}}
			opt, err := m.OptimalSpacingCtx(ctx, engine.Serial, 0.1, 0.4)
			switch {
			case err == nil:
				row.OptSpacingNM = opt.WLSpacingNM
				row.OptTotalPJ = opt.TotalPJ()
				row.Feasible = true
			case ctx.Err() != nil:
				return row, err
			}
		}
		return row, nil
	})
}

// filterShapeWithFWHM solves the symmetric coupling giving the target
// linewidth: FWHM = FSR(1-p)/(π√p) with p = a·r².
func filterShapeWithFWHM(base core.RingShape, fwhmNM float64) (core.RingShape, error) {
	if fwhmNM <= 0 {
		return core.RingShape{}, fmt.Errorf("dse: non-positive FWHM")
	}
	c := math.Pi * fwhmNM / base.FSRNM
	// (1-p)/√p = c  =>  √p = (-c + √(c²+4))/2.
	s := (-c + math.Sqrt(c*c+4)) / 2
	p := s * s
	r := math.Sqrt(p / base.A)
	if r <= 0 || r >= 1 {
		return core.RingShape{}, fmt.Errorf("dse: linewidth %g nm unrealizable", fwhmNM)
	}
	out := base
	out.R1, out.R2 = r, r
	return out, nil
}

// RenderRingSensitivity writes the sensitivity table.
func RenderRingSensitivity(w io.Writer, rows []RingSensitivityRow) error {
	if _, err := fmt.Fprintln(w, "Ablation: filter linewidth vs Fig 7 optimum (n=2)"); err != nil {
		return err
	}
	t := NewTable("FWHM scale", "FWHM (nm)", "opt spacing (nm)", "opt total (pJ)")
	for _, r := range rows {
		if !r.Feasible {
			t.AddRow(fmt.Sprintf("%.2f", r.FWHMScale), "-", "infeasible", "-")
			continue
		}
		t.AddRow(
			fmt.Sprintf("%.2f", r.FWHMScale),
			fmt.Sprintf("%.3f", r.FilterFWHMNM),
			fmt.Sprintf("%.3f", r.OptSpacingNM),
			fmt.Sprintf("%.1f", r.OptTotalPJ),
		)
	}
	return t.Render(w)
}

// APDComparisonRow contrasts detector options for the probe lasers —
// the paper's future-work ref [21].
type APDComparisonRow struct {
	Name          string
	ProbeMW       float64
	ProbeEnergyPJ float64
}

// APDComparison sizes the paper design's probe power with the
// calibrated pin detector and with the APD at the same thermal noise
// floor.
func APDComparison(ber float64) ([]APDComparisonRow, error) {
	pin := core.DefaultDetector()
	apd := optics.PaperAPD(pin.NoiseCurrentA)

	rows := make([]APDComparisonRow, 0, 2)
	for _, d := range []struct {
		name string
		det  optics.Photodetector
	}{
		{"pin (calibrated baseline)", pin},
		{fmt.Sprintf("APD (M=%.0f, x=%.1f)", apd.Gain, apd.ExcessNoiseExp), apd.EffectiveDetector()},
	} {
		p := core.PaperParams()
		p.Detector = d.det
		c, err := core.NewCircuit(p)
		if err != nil {
			return nil, err
		}
		probe := c.MinProbePowerMW(ber)
		p.ProbePowerMW = probe
		e := core.ParamsEnergy(p)
		rows = append(rows, APDComparisonRow{Name: d.name, ProbeMW: probe, ProbeEnergyPJ: e.ProbePJ})
	}
	return rows, nil
}

// RenderAPDComparison writes the detector table.
func RenderAPDComparison(w io.Writer, rows []APDComparisonRow, ber float64) error {
	if _, err := fmt.Fprintf(w, "Ablation: detector choice at BER %.0e (future work [21])\n", ber); err != nil {
		return err
	}
	t := NewTable("detector", "min probe (mW)", "probe energy (pJ/bit)")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.4f", r.ProbeMW), fmt.Sprintf("%.3f", r.ProbeEnergyPJ))
	}
	return t.Render(w)
}

// ParallelScalingRow shows aggregate throughput and power density of
// the §V.C parallel-array suggestion.
type ParallelScalingRow struct {
	Lanes                 int
	ThroughputResultsPerS float64
	TotalPowerMW          float64
	PowerDensityMWPerMM2  float64
}

// ParallelScaling evaluates lane counts at the paper design with the
// given stream length.
func ParallelScaling(lanes []int, streamLen int) ([]ParallelScalingRow, error) {
	p := core.PaperParams()
	c, err := core.NewCircuit(p)
	if err != nil {
		return nil, err
	}
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	out := make([]ParallelScalingRow, 0, len(lanes))
	for _, l := range lanes {
		arr, err := core.NewParallelArray(c, poly, l, 11)
		if err != nil {
			return nil, err
		}
		out = append(out, ParallelScalingRow{
			Lanes:                 l,
			ThroughputResultsPerS: arr.ThroughputResultsPerSec(streamLen),
			TotalPowerMW:          arr.TotalPowerMW(),
			PowerDensityMWPerMM2:  arr.PowerDensityMWPerMM2(),
		})
	}
	return out, nil
}

// RenderParallelScaling writes the scaling table.
func RenderParallelScaling(w io.Writer, rows []ParallelScalingRow, streamLen int) error {
	if _, err := fmt.Fprintf(w, "Parallel array scaling (%d-bit streams; §V.C suggestion)\n", streamLen); err != nil {
		return err
	}
	t := NewTable("lanes", "results/s", "total power (mW)", "power density (mW/mm²)")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprint(r.Lanes),
			fmt.Sprintf("%.3g", r.ThroughputResultsPerS),
			fmt.Sprintf("%.1f", r.TotalPowerMW),
			fmt.Sprintf("%.1f", r.PowerDensityMWPerMM2),
		)
	}
	return t.Render(w)
}
