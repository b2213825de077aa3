package dse

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
	"repro/internal/transient"
)

// This file is the Monte-Carlo noise study behind `oscbench -fig
// noise`: the paper's central accuracy–power trade-off (Eq. 8–9 BER
// feeding the §V.B accuracy loss) swept over stream length, probe
// power and noise sigma. Every trial runs through the word-parallel
// noisy batch evaluator (transient.Simulator.EvaluateBatch) with
// per-trial derived seeds, so the study is reproducible on any engine
// and core count.

// NoiseStudySpec parameterizes NoiseStudy.
type NoiseStudySpec struct {
	// X is the input probability evaluated in every trial.
	X float64
	// Lengths are the stochastic stream lengths to sweep.
	Lengths []int
	// ProbeMW are the probe laser powers to sweep (mW, > 0).
	ProbeMW []float64
	// SigmaScale multiplies the detector-derived noise sigma; an
	// empty list means {1} (the paper's detector as-is).
	SigmaScale []float64
	// Trials is the number of Monte-Carlo repetitions per point
	// (clamped to >= 2).
	Trials int
	// BERBits is the slot count for the batched worst-case BER
	// measurement; 0 selects 200 000.
	BERBits int
	// Seed drives every trial's randomness via stochastic.DeriveSeed.
	Seed uint64
}

// effectiveTrials is the Monte-Carlo repetition count NoiseStudy
// actually runs (and RenderNoiseStudy reports) for this spec.
func (s NoiseStudySpec) effectiveTrials() int {
	if s.Trials < 2 {
		return 2
	}
	return s.Trials
}

// DefaultNoiseStudySpec is the oscbench configuration: the paper's
// order-2 design at its 1 mW probes and at probes sized for a 1e-2
// worst-case BER, at the nominal and a 2x noise floor.
func DefaultNoiseStudySpec() (NoiseStudySpec, error) {
	c, err := core.NewCircuit(core.PaperParams())
	if err != nil {
		return NoiseStudySpec{}, err
	}
	return NoiseStudySpec{
		X:          0.5,
		Lengths:    []int{256, 1024, 4096},
		ProbeMW:    []float64{core.PaperParams().ProbePowerMW, c.MinProbePowerMW(1e-2)},
		SigmaScale: []float64{1, 2},
		Trials:     32,
		Seed:       17,
	}, nil
}

// NoiseRow is one (probe, sigma, length) point of the study.
type NoiseRow struct {
	ProbeMW    float64
	SigmaScale float64
	// SigmaMW is the resulting received-power noise deviation.
	SigmaMW   float64
	StreamLen int
	// RMSE is the Monte-Carlo root-mean-square error of the noisy
	// de-randomized result against the analytic Bernstein value.
	RMSE float64
	// MeasuredBER and AnalyticBER are the batched worst-case
	// measurement and the Eq. (9) prediction for this link.
	MeasuredBER, AnalyticBER float64
}

// NoiseStudy runs the Monte-Carlo accuracy/BER sweep on the paper's
// order-2 reference polynomial. The (probe, sigma) combinations fan
// out on e under ctx (SweepCtx, one derived seed per combination):
// each rebuilds its circuit, measures the worst-case BER in one
// batched run, then estimates the end-to-end RMSE at every stream
// length from Trials independent noisy evaluations, run on
// engine.Serial inside the combination so the study dispatches on e at
// one level only. Results are row-ordered by (probe, sigma, length)
// and identical on every engine.
func NoiseStudy(ctx context.Context, e engine.Engine, spec NoiseStudySpec) ([]NoiseRow, error) {
	if len(spec.Lengths) == 0 {
		return nil, fmt.Errorf("dse: noise study needs stream lengths")
	}
	for _, l := range spec.Lengths {
		if l < 1 {
			return nil, fmt.Errorf("dse: stream length %d, need >= 1", l)
		}
	}
	if len(spec.ProbeMW) == 0 {
		return nil, fmt.Errorf("dse: noise study needs probe powers")
	}
	scales := spec.SigmaScale
	if len(scales) == 0 {
		scales = []float64{1}
	}
	trials := spec.effectiveTrials()
	berBits := spec.BERBits
	if berBits <= 0 {
		berBits = 200_000
	}

	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	want := poly.Eval(spec.X)
	xs := make([]float64, trials)
	for i := range xs {
		xs[i] = spec.X
	}

	for _, probe := range spec.ProbeMW {
		if probe <= 0 {
			return nil, fmt.Errorf("dse: probe power %g not positive", probe)
		}
	}
	for _, scale := range scales {
		if scale <= 0 {
			return nil, fmt.Errorf("dse: sigma scale %g not positive", scale)
		}
	}

	// One sweep point per (probe, scale) combination with a per-combo
	// derived seed; each point returns its stream-length rows,
	// flattened back in combo order below.
	combos := len(spec.ProbeMW) * len(scales)
	groups, err := SweepCtx(ctx, e, combos, func(combo int) ([]NoiseRow, error) {
		comboSeed := stochastic.DeriveSeed(spec.Seed, combo)
		probe := spec.ProbeMW[combo/len(scales)]
		scale := scales[combo%len(scales)]
		p := core.PaperParams()
		p.ProbePowerMW = probe
		c, err := core.NewCircuit(p)
		if err != nil {
			return nil, err
		}
		u, err := core.NewUnit(c, poly, comboSeed)
		if err != nil {
			return nil, err
		}
		sim := transient.NewSimulator(u, comboSeed+1)
		sim.SigmaMW *= scale
		measured, err := sim.MeasureWorstCaseBER(berBits)
		if err != nil {
			return nil, err
		}
		analytic := sim.AnalyticWorstCaseBER()
		rows := make([]NoiseRow, 0, len(spec.Lengths))
		for _, l := range spec.Lengths {
			vals, err := sim.EvaluateBatch(ctx, engine.Serial, xs, l)
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for _, v := range vals {
				d := v - want
				sum += d * d
			}
			rows = append(rows, NoiseRow{
				ProbeMW:     probe,
				SigmaScale:  scale,
				SigmaMW:     sim.SigmaMW,
				StreamLen:   l,
				RMSE:        math.Sqrt(sum / float64(trials)),
				MeasuredBER: measured,
				AnalyticBER: analytic,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]NoiseRow, 0, combos*len(spec.Lengths))
	for _, rows := range groups {
		out = append(out, rows...)
	}
	return out, nil
}

// RenderNoiseStudy writes the study as a table.
func RenderNoiseStudy(w io.Writer, rows []NoiseRow, spec NoiseStudySpec) error {
	if _, err := fmt.Fprintf(w, "Monte-Carlo noise study at x = %g (%d trials/point, batched noisy engine)\n",
		spec.X, spec.effectiveTrials()); err != nil {
		return err
	}
	t := NewTable("probe (mW)", "σ (mW)", "stream length", "RMSE", "measured BER", "analytic BER")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.4f", r.ProbeMW),
			fmt.Sprintf("%.4f", r.SigmaMW),
			fmt.Sprint(r.StreamLen),
			fmt.Sprintf("%.4f", r.RMSE),
			fmt.Sprintf("%.3e", r.MeasuredBER),
			fmt.Sprintf("%.3e", r.AnalyticBER),
		)
	}
	return t.Render(w)
}
