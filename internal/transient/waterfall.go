package transient

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

// WaterfallPoint is one probe power of a BER waterfall.
type WaterfallPoint struct {
	ProbeMW     float64
	AnalyticBER float64
	MeasuredBER float64
}

// waterfallSalt separates the per-point simulator seed stream of
// BERWaterfall from the per-point unit seed stream derived from the
// same base seed.
const waterfallSalt = 0xC2B2AE3D27D4EB4F

// waterfallSeeds derives point i's unit and simulator seeds from the
// waterfall's base seed via stochastic.DeriveSeed on two salted
// streams. Point i's randomness depends on (base, i) only, which is
// what makes the fanned-out waterfall scheduling-independent.
func waterfallSeeds(base uint64, i int) (unitSeed, simSeed uint64) {
	return stochastic.DeriveSeed(base, i), stochastic.DeriveSeed(base^waterfallSalt, i)
}

// waterfallPoint measures one probe power: rebuild the circuit at that
// power, wire a fresh unit and simulator from the point's derived
// seeds, and transmit `bits` worst-case pattern pairs. It is the unit
// of work BERWaterfallCtx dispatches, so every engine emits identical
// points.
func waterfallPoint(base core.Params, poly stochastic.BernsteinPoly, powerMW float64, bits int, unitSeed, simSeed uint64) (WaterfallPoint, error) {
	if powerMW <= 0 {
		return WaterfallPoint{}, fmt.Errorf("transient: probe power %g not positive", powerMW)
	}
	params := base
	params.ProbePowerMW = powerMW
	c, err := core.NewCircuit(params)
	if err != nil {
		return WaterfallPoint{}, err
	}
	u, err := core.NewUnit(c, poly, unitSeed)
	if err != nil {
		return WaterfallPoint{}, err
	}
	sim := NewSimulator(u, simSeed)
	measured, err := sim.MeasureWorstCaseBER(bits)
	if err != nil {
		return WaterfallPoint{}, err
	}
	return WaterfallPoint{
		ProbeMW:     powerMW,
		AnalyticBER: sim.AnalyticWorstCaseBER(),
		MeasuredBER: measured,
	}, nil
}

// BERWaterfallCtx measures the worst-case bit-error rate at each probe
// power and pairs it with the Eq. (9) prediction — the standard link
// validation curve. Each point rebuilds the circuit at the given
// power and transmits `bits` worst-case pattern pairs.
//
// Points are independent measurements dispatched on the given engine,
// each with unit and simulator seeds derived from the base seed and
// the point index alone (stochastic.DeriveSeed) — the waterfall is
// bit-identical on every conforming engine and deterministic on any
// core count. A nil engine is an error. If several points fail, the
// error of the lowest failing index is returned (a deterministic
// choice). A fired ctx stops the point fan-out at a point boundary and
// surfaces a *engine.Partial (wrapping the context error, or the
// *engine.PanicError of a faulting point) instead of a curve.
func BERWaterfallCtx(ctx context.Context, e engine.Engine, base core.Params, powersMW []float64, bits int, seed uint64) ([]WaterfallPoint, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if bits < 1 {
		return nil, fmt.Errorf("transient: waterfall needs bits >= 1")
	}
	poly := defaultPoly(base.Order)
	out := make([]WaterfallPoint, len(powersMW))
	errs := make([]error, len(powersMW))
	if err := engine.RunCtx(ctx, e, len(powersMW), nil, func(i int) {
		unitSeed, simSeed := waterfallSeeds(seed, i)
		out[i], errs[i] = waterfallPoint(base, poly, powersMW[i], bits, unitSeed, simSeed)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// defaultPoly builds an arbitrary representable polynomial of the
// needed degree (the waterfall only exercises the link, not the
// polynomial).
func defaultPoly(order int) stochastic.BernsteinPoly {
	coef := make([]float64, order+1)
	for i := range coef {
		coef[i] = float64(i+1) / float64(order+2)
	}
	return stochastic.NewBernstein(coef)
}

// String implements fmt.Stringer.
func (p WaterfallPoint) String() string {
	return fmt.Sprintf("probe %.4f mW: measured %.3g, analytic %.3g", p.ProbeMW, p.MeasuredBER, p.AnalyticBER)
}
