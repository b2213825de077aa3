package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// VariationSpec describes fabrication-induced device variation for
// Monte-Carlo yield analysis. The paper motivates stochastic
// computing precisely for "application domains where soft errors and
// process variations are of major concern" (§I); this analysis turns
// that concern on the optical implementation itself.
//
// All sigmas are standard deviations of independent Gaussian
// perturbations applied per fabricated instance.
type VariationSpec struct {
	// RingResonanceSigmaNM perturbs every ring's cold resonance
	// (typical silicon fab: 0.05–0.5 nm before trimming; assume
	// post-trim residuals of a few tens of pm).
	RingResonanceSigmaNM float64
	// CouplingSigma perturbs ring self-coupling coefficients
	// (relative).
	CouplingSigma float64
	// MZIILSigmaDB and MZIERSigmaDB perturb the MZI figures.
	MZIILSigmaDB float64
	MZIERSigmaDB float64

	// Samples is the Monte-Carlo count; Seed the RNG seed.
	Samples int
	Seed    uint64
	// TargetBER defines a passing die.
	TargetBER float64
}

// YieldResult summarizes the Monte-Carlo run.
type YieldResult struct {
	Samples int
	Pass    int
	// Yield is Pass/Samples.
	Yield float64
	// MeanBER and WorstBER aggregate the per-die worst-case BER.
	MeanBER  float64
	WorstBER float64
	// MeanEyeMW is the average worst-case eye opening.
	MeanEyeMW float64
}

// DieOutcome is one fabricated die's measurement. A structural die is
// one so far off it violates the circuit's structural constraints — a
// failed die with the worst-case BER and no eye. The JSON tags make
// die outcomes checkpointable: float64 round-trips JSON exactly, so a
// resumed yield sweep reassembles bit-identically.
type DieOutcome struct {
	BER        float64 `json:"ber"`
	EyeMW      float64 `json:"eye_mw"`
	Structural bool    `json:"structural,omitempty"`
}

// fabricateDie perturbs one virtual die of p with variation v, drawing
// every Gaussian from g in a fixed order, and measures it.
func fabricateDie(p Params, v VariationSpec, g *stochastic.Gaussian) DieOutcome {
	die := p
	// MZI device variation (clamped to physical ranges).
	die.MZI.ILdB = math.Max(0, die.MZI.ILdB+g.Next()*v.MZIILSigmaDB)
	die.MZI.ERdB = math.Max(0.1, die.MZI.ERdB+g.Next()*v.MZIERSigmaDB)
	// Filter resonance variation enters through the offset.
	die.FilterOffsetNM = math.Max(0, die.FilterOffsetNM+g.Next()*v.RingResonanceSigmaNM)

	c, err := NewCircuit(die)
	if err != nil {
		return DieOutcome{BER: 0.5, Structural: true}
	}
	// Per-ring perturbations on the instantiated devices.
	for i := range c.Modulators {
		c.Modulators[i].ResonanceNM += g.Next() * v.RingResonanceSigmaNM
		c.Modulators[i].SelfCoupling1 = clamp01open(c.Modulators[i].SelfCoupling1 * (1 + g.Next()*v.CouplingSigma))
		c.Modulators[i].SelfCoupling2 = clamp01open(c.Modulators[i].SelfCoupling2 * (1 + g.Next()*v.CouplingSigma))
	}
	c.Filter.SelfCoupling1 = clamp01open(c.Filter.SelfCoupling1 * (1 + g.Next()*v.CouplingSigma))
	c.Filter.SelfCoupling2 = clamp01open(c.Filter.SelfCoupling2 * (1 + g.Next()*v.CouplingSigma))

	// The eye builds the power table and its factor cache first, so
	// the BER's Eq. (8) margin reads those factors instead of
	// evaluating its one-hot ones again.
	eye := c.EyeOpeningMW()
	return DieOutcome{BER: c.BER(), EyeMW: eye}
}

// MeasureDie fabricates and measures virtual die s of design p under
// variation v. Its Gaussians come from stochastic.DeriveSeed(v.Seed, s)
// alone, so a die's outcome depends only on (p, v, s) — the property
// that lets yield sweeps shard, checkpoint and resume by die index
// with bit-identical reassembly.
func MeasureDie(p Params, v VariationSpec, s int) DieOutcome {
	g := stochastic.NewGaussian(stochastic.NewSplitMix64(stochastic.DeriveSeed(v.Seed, s)))
	return fabricateDie(p, v, g)
}

// FoldYield aggregates per-die outcomes (in die order) into the
// YieldResult AnalyzeYieldCtx reports — the deterministic reduce shared
// by the direct, checkpointed and resumed paths.
func FoldYield(v VariationSpec, dies []DieOutcome) YieldResult {
	res := YieldResult{Samples: len(dies)}
	sumBER, sumEye := 0.0, 0.0
	for _, o := range dies {
		sumBER += o.BER
		if o.BER > res.WorstBER {
			res.WorstBER = o.BER
		}
		if o.Structural {
			continue
		}
		sumEye += o.EyeMW
		if o.BER <= v.TargetBER {
			res.Pass++
		}
	}
	if res.Samples > 0 {
		res.Yield = float64(res.Pass) / float64(res.Samples)
		res.MeanBER = sumBER / float64(res.Samples)
		res.MeanEyeMW = sumEye / float64(res.Samples)
	}
	return res
}

// checkYield validates a yield request.
func checkYield(p Params, v VariationSpec) error {
	if v.Samples < 1 {
		return fmt.Errorf("core: yield needs >= 1 sample")
	}
	if v.TargetBER <= 0 || v.TargetBER >= 0.5 {
		return fmt.Errorf("core: yield BER target %g outside (0, 0.5)", v.TargetBER)
	}
	return p.Validate()
}

// AnalyzeYieldCtx fabricates `Samples` virtual dies of the design p
// with the given variation on the given engine and reports how many
// still meet the BER target.
//
// Die s is MeasureDie(p, v, s) — Gaussians seeded from
// stochastic.DeriveSeed(Seed, s) alone — and outcomes fold in index
// order, so the result is identical on any conforming engine, core
// count or scheduling. A nil engine is an error. A fired ctx stops the
// die fan-out at a die boundary and surfaces a *engine.Partial
// (wrapping the context error, or the *engine.PanicError of a
// faulting die) instead of a result.
func AnalyzeYieldCtx(ctx context.Context, e engine.Engine, p Params, v VariationSpec) (YieldResult, error) {
	if err := engine.Check(e); err != nil {
		return YieldResult{}, err
	}
	if err := checkYield(p, v); err != nil {
		return YieldResult{}, err
	}
	dies := make([]DieOutcome, v.Samples)
	if err := engine.RunCtx(ctx, e, v.Samples, nil, func(s int) {
		dies[s] = MeasureDie(p, v, s)
	}); err != nil {
		return YieldResult{}, err
	}
	return FoldYield(v, dies), nil
}

func clamp01open(x float64) float64 {
	if x <= 0 {
		return 1e-6
	}
	if x > 1 {
		return 1
	}
	return x
}

// String implements fmt.Stringer.
func (r YieldResult) String() string {
	return fmt.Sprintf("yield %d/%d (%.1f%%), mean BER %.3g, worst BER %.3g, mean eye %.4f mW",
		r.Pass, r.Samples, r.Yield*100, r.MeanBER, r.WorstBER, r.MeanEyeMW)
}
