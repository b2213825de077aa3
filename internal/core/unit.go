package core

import (
	"fmt"
	"sync"

	"repro/internal/stochastic"
)

// Unit is the end-to-end optical stochastic-computing unit: the
// randomizer (SNGs driving the MZIs and the coefficient modulators),
// the optical datapath (Circuit), and the de-randomizer (OOK decision
// against the calibrated threshold plus a ones counter).
//
// In the absence of detector noise the decision is exact whenever the
// worst-case eye is open, making the unit functionally equivalent to
// the electronic ReSC baseline; internal/transient injects noise to
// study the BER-induced accuracy loss.
type Unit struct {
	Circuit *Circuit
	Poly    stochastic.BernsteinPoly

	dataSNG []*stochastic.SNG
	coefSNG []*stochastic.SNG

	seed        uint64
	thresholdMW float64

	// decisions is the fully-tabulated noiseless output bit,
	// decisions[weight] a bitset over z-masks, built once on first
	// word-parallel evaluation (see decisionTable) by thresholding the
	// circuit's shared received-power table. Immutable after decOnce
	// fires, so the batch workers share it without locking.
	decOnce   sync.Once
	decisions [][]uint64
}

// NewUnit builds a unit for the polynomial on the given circuit. The
// polynomial degree must match the circuit order and the coefficients
// must be probabilities. Randomness derives from seed via independent
// SplitMix64 streams.
func NewUnit(c *Circuit, poly stochastic.BernsteinPoly, seed uint64) (*Unit, error) {
	if poly.Degree() != c.P.Order {
		return nil, fmt.Errorf("core: polynomial degree %d != circuit order %d", poly.Degree(), c.P.Order)
	}
	if !poly.Representable() {
		return nil, fmt.Errorf("core: polynomial %v not SC-representable", poly)
	}
	u := &Unit{Circuit: c, Poly: poly, seed: seed}
	u.dataSNG, u.coefSNG = seededSNGs(c.P.Order, seed)
	u.thresholdMW = c.Decider().ThresholdMW
	return u, nil
}

// seededSNGs derives the unit's n data and n+1 coefficient generators
// from a base seed as independent SplitMix64 streams.
func seededSNGs(order int, seed uint64) (data, coef []*stochastic.SNG) {
	data = make([]*stochastic.SNG, order)
	for i := range data {
		data[i] = stochastic.NewSNG(stochastic.NewSplitMix64(seed + uint64(i)*0x9E3779B9 + 1))
	}
	coef = make([]*stochastic.SNG, order+1)
	for i := range coef {
		coef[i] = stochastic.NewSNG(stochastic.NewSplitMix64(seed + 0x5DEECE66D + uint64(i)*0x61C88647))
	}
	return data, coef
}

// receivedMW returns the tabulated received power for a data weight
// and coefficient bits, enumerating the circuit directly for orders
// too large to tabulate.
func (u *Unit) receivedMW(weight int, z []int, zmask int) float64 {
	if pow := u.powerTable(); pow != nil {
		return pow[weight][zmask]
	}
	return u.Circuit.ReceivedPowerMW(weight, z)
}

// ThresholdMW returns the OOK decision threshold calibrated from the
// circuit's worst-case power bands.
func (u *Unit) ThresholdMW() float64 { return u.thresholdMW }

// StepResult captures one optical clock cycle for inspection.
type StepResult struct {
	// X holds the data bits that drove the MZIs; Z the coefficient
	// bits that drove the modulators.
	X, Z []int
	// Weight is the number of '1' data bits; Selected the probe
	// channel the filter routed to the detector.
	Weight, Selected int
	// ReceivedMW is the optical power at the photodetector (before
	// any noise).
	ReceivedMW float64
	// Bit is the thresholded output bit.
	Bit int
}

// Step runs one optical clock cycle at input probability x. noiseMW
// is added to the received power before thresholding (0 for the
// noiseless analytic model; internal/transient supplies Gaussian
// samples).
func (u *Unit) Step(x float64, noiseMW float64) StepResult {
	n := u.Circuit.P.Order
	r := StepResult{X: make([]int, n), Z: make([]int, n+1)}
	for i := range r.X {
		r.X[i] = u.dataSNG[i].NextBit(x)
		r.Weight += r.X[i]
	}
	zmask := 0
	for i := range r.Z {
		r.Z[i] = u.coefSNG[i].NextBit(u.Poly.Coef[i])
		zmask |= r.Z[i] << i
	}
	r.Selected = u.Circuit.SelectedChannel(r.Weight)
	r.ReceivedMW = u.receivedMW(r.Weight, r.Z, zmask)
	if r.ReceivedMW+noiseMW > u.thresholdMW {
		r.Bit = 1
	}
	return r
}

// Evaluate runs `length` cycles at input x (noiseless) and returns
// the de-randomized estimate of B(x) with the raw output stream.
func (u *Unit) Evaluate(x float64, length int) (float64, *stochastic.Bitstream) {
	out := stochastic.NewBitstream(length)
	for t := 0; t < length; t++ {
		out.Set(t, u.Step(x, 0).Bit)
	}
	return out.Value(), out
}
