package core

import (
	"fmt"

	"repro/internal/stochastic"
)

// FunctionUnit evaluates an arbitrary continuous function on [0, 1]
// optically: the function is least-squares fitted by a degree-n
// Bernstein polynomial with coefficients clamped to [0, 1] (the ReSC
// representability condition), an order-n circuit is sized by
// MRR-first, and the polynomial runs on the optical unit.
type FunctionUnit struct {
	Unit *Unit
	// Poly is the fitted polynomial; FitMaxErr its worst-case
	// deviation from the target function over the fit grid. The
	// optical evaluation adds stochastic noise on top of this
	// approximation floor.
	Poly      stochastic.BernsteinPoly
	FitMaxErr float64
}

// NewFunctionUnit fits f at the given degree and builds the optical
// evaluator. The spec's Order and WLSpacing are overridden by degree
// and spacingNM.
func NewFunctionUnit(f func(float64) float64, degree int, spacingNM float64, spec MRRFirstSpec, seed uint64) (*FunctionUnit, error) {
	if f == nil {
		return nil, fmt.Errorf("core: nil function")
	}
	poly, maxErr, err := stochastic.Fit(f, degree, 64*(degree+1))
	if err != nil {
		return nil, fmt.Errorf("core: fitting degree %d: %w", degree, err)
	}
	spec.Order = degree
	spec.WLSpacingNM = spacingNM
	p, err := MRRFirst(spec)
	if err != nil {
		return nil, err
	}
	c, err := NewCircuit(p)
	if err != nil {
		return nil, err
	}
	u, err := NewUnit(c, poly, seed)
	if err != nil {
		return nil, err
	}
	return &FunctionUnit{Unit: u, Poly: poly, FitMaxErr: maxErr}, nil
}

// Evaluate runs the optical unit for `length` bits at input x.
func (fu *FunctionUnit) Evaluate(x float64, length int) float64 {
	v, _ := fu.Unit.Evaluate(x, length)
	return v
}
