package dse

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// YieldStudy is the long-running Monte-Carlo campaign of the paper's
// process-variation concern (§I) as a flat, checkpointable sweep: a
// grid of ring-resonance sigmas × fabricated dies, one die per sweep
// point, folded per sigma into core.YieldResult rows. Because die
// (sigma s, die d) depends only on (Params, the variation at s, d) —
// core.MeasureDie derives its Gaussians from (Seed, d) alone — the
// study shards, checkpoints and resumes by point index with
// bit-identical reassembly.
type YieldStudy struct {
	Params core.Params
	// SigmasNM are the ring-resonance sigma values (nm) studied.
	SigmasNM []float64
	// Samples is the die count per sigma; Seed the base RNG seed;
	// TargetBER defines a passing die.
	Samples   int
	Seed      uint64
	TargetBER float64
}

// YieldPoint is one sigma row of the study.
type YieldPoint struct {
	SigmaNM float64          `json:"sigma_nm"`
	Result  core.YieldResult `json:"result"`
}

// N is the total die count: len(SigmasNM) * Samples.
func (s YieldStudy) N() int { return len(s.SigmasNM) * s.Samples }

// Variation is the core.VariationSpec for one sigma row.
func (s YieldStudy) Variation(sigmaNM float64) core.VariationSpec {
	return core.VariationSpec{
		RingResonanceSigmaNM: sigmaNM,
		Samples:              s.Samples,
		Seed:                 s.Seed,
		TargetBER:            s.TargetBER,
	}
}

// Key builds the checkpoint identity for this study: every field that
// affects a die's outcome is rendered into the config string, so a
// checkpoint from a different study fails closed.
func (s YieldStudy) Key() CheckpointKey {
	return CheckpointKey{
		Figure: "yield",
		Config: fmt.Sprintf("params=%+v sigmas=%v samples=%d target=%g", s.Params, s.SigmasNM, s.Samples, s.TargetBER),
		Seed:   s.Seed,
		N:      s.N(),
	}
}

// check validates the study shape.
func (s YieldStudy) check() error {
	if len(s.SigmasNM) == 0 {
		return fmt.Errorf("dse: yield study has no sigmas")
	}
	if s.Samples < 1 {
		return fmt.Errorf("dse: yield study needs >= 1 sample per sigma")
	}
	return nil
}

// Die measures sweep point i: die i%Samples under sigma row
// i/Samples. This is the unit of checkpointing.
func (s YieldStudy) Die(i int) core.DieOutcome {
	return core.MeasureDie(s.Params, s.Variation(s.SigmasNM[i/s.Samples]), i%s.Samples)
}

// Fold turns the flat die results (index order, len N()) into one
// YieldPoint per sigma, the same aggregation core.FoldYield performs
// for core.AnalyzeYieldCtx — so a study row equals a standalone
// AnalyzeYield run bit for bit.
func (s YieldStudy) Fold(dies []core.DieOutcome) ([]YieldPoint, error) {
	if len(dies) != s.N() {
		return nil, fmt.Errorf("dse: folding %d die results for an N=%d study", len(dies), s.N())
	}
	points := make([]YieldPoint, len(s.SigmasNM))
	for r, sigma := range s.SigmasNM {
		points[r] = YieldPoint{
			SigmaNM: sigma,
			Result:  core.FoldYield(s.Variation(sigma), dies[r*s.Samples:(r+1)*s.Samples]),
		}
	}
	return points, nil
}

// RunCtx runs the whole study on e under ctx without checkpointing:
// an interruption surfaces the sweep layer's *engine.Partial.
func (s YieldStudy) RunCtx(ctx context.Context, e engine.Engine) ([]YieldPoint, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	dies, err := SweepCtx(ctx, e, s.N(), func(i int) (core.DieOutcome, error) { return s.Die(i), nil })
	if err != nil {
		return nil, err
	}
	return s.Fold(dies)
}

// RunCheckpointed runs the study through cp (which must carry s.Key();
// anything else fails closed), resuming from whatever cp already
// restored and snapshotting as configured. The fold only happens on a
// complete run; an interrupted one returns the *engine.Partial from
// the checkpointer with the completed dies safely on disk.
func (s YieldStudy) RunCheckpointed(ctx context.Context, e engine.Engine, cp *Checkpointer[core.DieOutcome]) ([]YieldPoint, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if cp.Key != s.Key() {
		return nil, fmt.Errorf("dse: checkpointer key %+v is not this study's %+v: %w", cp.Key, s.Key(), ErrStaleCheckpoint)
	}
	dies, err := cp.Run(ctx, e, s.Die)
	if err != nil {
		return nil, err
	}
	return s.Fold(dies)
}
