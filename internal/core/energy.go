package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/optics"
)

// EnergyBreakdown is the per-computed-bit laser energy of a design,
// the quantity of the paper's Fig. 7. All energies are electrical
// (optical power / lasing efficiency) in picojoules.
type EnergyBreakdown struct {
	// WLSpacingNM is the probe spacing the design was sized for.
	WLSpacingNM float64
	// PumpPJ is the pulse-based pump laser's energy per bit.
	PumpPJ float64
	// ProbePJ is the summed energy of all n+1 CW probe lasers.
	ProbePJ float64
	// PumpPowerMW and ProbePowerMW are the sized laser powers
	// (probe is per laser).
	PumpPowerMW  float64
	ProbePowerMW float64
	// ProbeLasers is the probe laser count n+1.
	ProbeLasers int
}

// TotalPJ returns pump + probe energy per bit.
func (e EnergyBreakdown) TotalPJ() float64 { return e.PumpPJ + e.ProbePJ }

// String implements fmt.Stringer.
func (e EnergyBreakdown) String() string {
	return fmt.Sprintf("spacing %.3fnm: pump %.2fpJ (%.1fmW) + probe %.2fpJ (%d×%.3fmW) = %.2fpJ/bit",
		e.WLSpacingNM, e.PumpPJ, e.PumpPowerMW, e.ProbePJ, e.ProbeLasers, e.ProbePowerMW, e.TotalPJ())
}

// EnergyModel sizes minimal lasers for a given wavelength spacing
// (via MRR-first) and evaluates the per-bit energy. It is the engine
// behind Fig. 7(a)/(b).
type EnergyModel struct {
	Spec MRRFirstSpec
}

// NewEnergyModel returns a model for the given polynomial order with
// the paper's §V.C assumptions (1 Gb/s, 26 ps pump pulses, 20 %
// lasing efficiency, dense ring preset, BER target 1e-6).
func NewEnergyModel(order int) EnergyModel {
	return EnergyModel{Spec: MRRFirstSpec{Order: order}}
}

// NewWideCombEnergyModel is NewEnergyModel with the 40 nm-FSR ring
// preset, required when the probe comb is wide (high order × wide
// spacing, as in the Fig. 7(b) sweep up to order 16 at 1 nm).
func NewWideCombEnergyModel(order int) EnergyModel {
	return EnergyModel{Spec: MRRFirstSpec{
		Order:       order,
		ModShape:    WideFSRModulatorShape(),
		FilterShape: WideFSRFilterShape(),
	}}
}

// Breakdown sizes the design at the given spacing and returns its
// energy per computed bit. The pump fires one pulse per bit; each of
// the n+1 probe lasers runs CW across the bit slot.
func (m EnergyModel) Breakdown(wlSpacingNM float64) (EnergyBreakdown, error) {
	spec := m.Spec
	spec.WLSpacingNM = wlSpacingNM
	p, err := MRRFirst(spec)
	if err != nil {
		return EnergyBreakdown{}, err
	}
	return ParamsEnergy(p), nil
}

// ParamsEnergy evaluates the per-bit energy of an already-sized
// parameter set.
func ParamsEnergy(p Params) EnergyBreakdown {
	bitT := p.BitPeriodS()
	var pumpPJ float64
	if p.PulseWidthS > 0 {
		pump := optics.PulsedLaser{
			PeakPowerMW: p.PumpPowerMW,
			PulseWidthS: p.PulseWidthS,
			Efficiency:  p.LasingEfficiency,
		}
		pumpPJ = pump.EnergyPerBitPJ(bitT)
	} else {
		cw := optics.CWLaser{PowerMW: p.PumpPowerMW, Efficiency: p.LasingEfficiency}
		pumpPJ = cw.EnergyPerBitPJ(bitT)
	}
	probe := optics.CWLaser{PowerMW: p.ProbePowerMW, Efficiency: p.LasingEfficiency}
	probePJ := float64(p.Order+1) * probe.EnergyPerBitPJ(bitT)
	return EnergyBreakdown{
		WLSpacingNM:  p.WLSpacingNM,
		PumpPJ:       pumpPJ,
		ProbePJ:      probePJ,
		PumpPowerMW:  p.PumpPowerMW,
		ProbePowerMW: p.ProbePowerMW,
		ProbeLasers:  p.Order + 1,
	}
}

// SweepCtx evaluates the breakdown across a spacing range on e under
// ctx, skipping infeasible points (closed eye). It returns one row per
// feasible spacing — the data series of Fig. 7(a). Every point is an
// independent MRR-first solve dispatched on the given engine and
// filtered back in index order — identical results on every
// conforming engine at any GOMAXPROCS. A fired ctx stops the fan-out
// at a point boundary and surfaces a *engine.Partial; a nil engine is
// an error.
func (m EnergyModel) SweepCtx(ctx context.Context, e engine.Engine, loNM, hiNM float64, points int) ([]EnergyBreakdown, error) {
	if points < 2 {
		points = 2
	}
	ws := numeric.Linspace(loNM, hiNM, points)
	rows := make([]EnergyBreakdown, len(ws))
	feasible := make([]bool, len(ws))
	if err := engine.RunCtx(ctx, e, len(ws), nil, func(i int) {
		b, err := m.Breakdown(ws[i])
		rows[i], feasible[i] = b, err == nil
	}); err != nil {
		return nil, err
	}
	out := make([]EnergyBreakdown, 0, points)
	for i, ok := range feasible {
		if ok {
			out = append(out, rows[i])
		}
	}
	return out, nil
}

// optimalGridN and optimalTolNM are the bracketing-scan resolution and
// golden-section tolerance of the spacing search; optimalChunkPts is
// the minimum number of bracketing-grid points per dispatched chunk.
// One grid solve is a few microseconds — comparable to per-item
// dispatch overhead, which is why a point-per-item fan-out loses to the
// serial walk — so points are dispatched in contiguous chunks of at
// least 16: the 61-point scan costs at most four dispatches, and on a
// one-worker engine engine.Chunked degrades to the pure inline walk.
const (
	optimalGridN    = 60
	optimalTolNM    = 1e-4
	optimalChunkPts = 16
)

// energyObjective is the total-energy objective of the spacing search:
// infeasible spacings (closed eye) are infinitely expensive.
func (m EnergyModel) energyObjective(w float64) float64 {
	b, err := m.Breakdown(w)
	if err != nil {
		return math.Inf(1)
	}
	return b.TotalPJ()
}

// OptimalSpacingCtx minimizes the total laser energy over
// [loNM, hiNM] and returns the optimum spacing with its breakdown.
// Infeasible spacings are treated as infinitely expensive. It returns
// an error if no spacing in the range is feasible, if the engine is
// nil, or if ctx fires before the bracketing scan completes.
//
// The search runs in two stages. The bracketing pre-pass — the ~60
// independent Breakdown solves that dominate the serial search — is
// dispatched on the given engine in contiguous chunks of at least
// optimalChunkPts points (engine.Chunked) and reduced in index order
// with numeric.GridMinimize's exact selection rule. Only the
// golden-section refinement inside the winning bracket stays
// sequential (each probe depends on the last), so the result is
// bit-identical on every conforming engine at any GOMAXPROCS.
func (m EnergyModel) OptimalSpacingCtx(ctx context.Context, e engine.Engine, loNM, hiNM float64) (EnergyBreakdown, error) {
	gridX := func(i int) float64 {
		return loNM + (hiNM-loNM)*float64(i)/float64(optimalGridN)
	}
	fs := make([]float64, optimalGridN+1)
	if err := engine.Chunked(ctx, e, len(fs), optimalChunkPts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fs[i] = m.energyObjective(gridX(i))
		}
	}); err != nil {
		return EnergyBreakdown{}, err
	}
	// Replay the precomputed samples through GridMinimize itself —
	// it probes f at exactly these abscissas in index order — so the
	// selection rule (and the returned abscissa) is literally the
	// serial search's, not a copy that could drift.
	k := 0
	best, _ := numeric.GridMinimize(func(float64) float64 { v := fs[k]; k++; return v }, loNM, hiNM, optimalGridN)
	h := (hiNM - loNM) / float64(optimalGridN)
	w := numeric.GoldenSection(m.energyObjective, math.Max(loNM, best-h), math.Min(hiNM, best+h), optimalTolNM)
	// One solve covers both the feasibility check and the result:
	// energyObjective(w) is +Inf exactly when Breakdown(w) errors.
	b, err := m.Breakdown(w)
	if err != nil {
		return EnergyBreakdown{}, fmt.Errorf("core: no feasible spacing in [%g, %g] nm", loNM, hiNM)
	}
	return b, nil
}

// EnergySavingVsFixed returns the fractional energy saving of the
// optimal spacing (searched on e under ctx) against a fixed reference
// spacing (the paper's Fig. 7(b) reports ≈76.6 % against 1 nm).
func (m EnergyModel) EnergySavingVsFixed(ctx context.Context, e engine.Engine, fixedNM, loNM, hiNM float64) (saving float64, fixed, opt EnergyBreakdown, err error) {
	fixed, err = m.Breakdown(fixedNM)
	if err != nil {
		return 0, fixed, opt, err
	}
	opt, err = m.OptimalSpacingCtx(ctx, e, loNM, hiNM)
	if err != nil {
		return 0, fixed, opt, err
	}
	return 1 - opt.TotalPJ()/fixed.TotalPJ(), fixed, opt, nil
}

// SpeedupVsElectronic returns the throughput speedup of the optical
// unit at its bit rate against an electronic ReSC clocked at
// refMHz (the paper compares 1 GHz optics against the 100 MHz of
// Qian et al., a 10× speedup).
func (p Params) SpeedupVsElectronic(refMHz float64) float64 {
	if refMHz <= 0 {
		panic("core: reference clock must be positive")
	}
	return p.BitRateGbps * 1e3 / refMHz
}
