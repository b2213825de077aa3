package dse

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
)

// Fig7ASeries is one polynomial order's energy-vs-spacing curve from
// the paper's Fig. 7(a), with the located optimum.
type Fig7ASeries struct {
	Order   int
	Points  []core.EnergyBreakdown
	Optimum core.EnergyBreakdown
}

// Fig7A sweeps the wavelength spacing over [0.1, 0.3] nm for each
// order (the paper plots n = 2, 4, 6). Orders fan out on e under ctx;
// each order's spacing sweep and optimum search run on engine.Serial
// inside its item (every point re-sizes the design with MRR-first, so
// the grid is a pile of independent solves).
func Fig7A(ctx context.Context, e engine.Engine, orders []int, points int) ([]Fig7ASeries, error) {
	return SweepCtx(ctx, e, len(orders), func(i int) (Fig7ASeries, error) {
		n := orders[i]
		m := core.NewEnergyModel(n)
		pts, err := m.SweepCtx(ctx, engine.Serial, 0.1, 0.3, points)
		if err != nil {
			return Fig7ASeries{}, err
		}
		opt, err := m.OptimalSpacingCtx(ctx, engine.Serial, 0.1, 0.3)
		if err != nil {
			return Fig7ASeries{}, fmt.Errorf("dse: Fig7A order %d: %w", n, err)
		}
		return Fig7ASeries{Order: n, Points: pts, Optimum: opt}, nil
	})
}

// RenderFig7A writes the per-order sweep tables and the optimum line.
func RenderFig7A(w io.Writer, series []Fig7ASeries) error {
	if _, err := fmt.Fprintln(w, "Fig 7(a): laser energy per computed bit vs wavelength spacing (26 ps pump pulses, 1 Gb/s, η=20%)"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "\norder n=%d:\n", s.Order); err != nil {
			return err
		}
		t := NewTable("spacing (nm)", "pump (pJ)", "probe (pJ)", "total (pJ)")
		for _, p := range s.Points {
			t.AddRow(
				fmt.Sprintf("%.3f", p.WLSpacingNM),
				fmt.Sprintf("%.2f", p.PumpPJ),
				fmt.Sprintf("%.2f", p.ProbePJ),
				fmt.Sprintf("%.2f", p.TotalPJ()),
			)
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "optimum: %.3f nm -> %.2f pJ/bit\n", s.Optimum.WLSpacingNM, s.Optimum.TotalPJ()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "\npaper: optimal spacing ≈ 0.165 nm, independent of the order; n=2 total ≈ 20.1 pJ/bit")
	return err
}

// Fig7BRow is one order of the paper's Fig. 7(b): total energy at
// 1 nm spacing versus the optimal spacing.
type Fig7BRow struct {
	Order     int
	Fixed1nm  core.EnergyBreakdown
	Optimal   core.EnergyBreakdown
	SavingPct float64
}

// Fig7B evaluates the order sweep {2, 4, 8, 12, 16} with the wide-FSR
// ring preset (the 1 nm × order-16 comb spans 16.1 nm). Orders fan
// out on e under ctx; each optimum search runs on engine.Serial.
func Fig7B(ctx context.Context, e engine.Engine, orders []int) ([]Fig7BRow, error) {
	return SweepCtx(ctx, e, len(orders), func(i int) (Fig7BRow, error) {
		n := orders[i]
		m := core.NewWideCombEnergyModel(n)
		fixed, err := m.Breakdown(1.0)
		if err != nil {
			return Fig7BRow{}, fmt.Errorf("dse: Fig7B order %d at 1 nm: %w", n, err)
		}
		opt, err := m.OptimalSpacingCtx(ctx, engine.Serial, 0.1, 0.3)
		if err != nil {
			return Fig7BRow{}, fmt.Errorf("dse: Fig7B order %d optimum: %w", n, err)
		}
		return Fig7BRow{
			Order:     n,
			Fixed1nm:  fixed,
			Optimal:   opt,
			SavingPct: 100 * (1 - opt.TotalPJ()/fixed.TotalPJ()),
		}, nil
	})
}

// RenderFig7B writes the order table.
func RenderFig7B(w io.Writer, rows []Fig7BRow) error {
	if _, err := fmt.Fprintln(w, "Fig 7(b): total laser energy per bit vs polynomial order"); err != nil {
		return err
	}
	t := NewTable("order", "@1 nm (pJ)", "optimal spacing (nm)", "@optimal (pJ)", "saving")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprint(r.Order),
			fmt.Sprintf("%.1f", r.Fixed1nm.TotalPJ()),
			fmt.Sprintf("%.3f", r.Optimal.WLSpacingNM),
			fmt.Sprintf("%.1f", r.Optimal.TotalPJ()),
			fmt.Sprintf("%.1f%%", r.SavingPct),
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "paper: ≈76.6% saving at the optimal spacing; n=2 @1nm ≈ 77 pJ, n=16 @1nm ≈ 590 pJ")
	return err
}

// SummaryAnchors are the in-text quantitative claims of §V.A/§V.C.
type SummaryAnchors struct {
	PumpPowerMW      float64 // paper: 591.8
	ERdB             float64 // paper: 13.22
	HeadlinePJPerBit float64 // paper: 20.1
	OptimalSpacingNM float64 // paper: 0.165
	SavingPct        float64 // paper: 76.6
	SpeedupVs100MHz  float64 // paper: 10
}

// Summary computes the anchor values from the calibrated models, with
// the optimum searches dispatched on e under ctx.
func Summary(ctx context.Context, e engine.Engine) (SummaryAnchors, error) {
	p := core.PaperParams()
	m := core.NewEnergyModel(2)
	opt, err := m.OptimalSpacingCtx(ctx, e, 0.1, 0.3)
	if err != nil {
		return SummaryAnchors{}, err
	}
	saving, _, _, err := m.EnergySavingVsFixed(ctx, e, 1.0, 0.1, 0.3)
	if err != nil {
		return SummaryAnchors{}, err
	}
	return SummaryAnchors{
		PumpPowerMW:      p.PumpPowerMW,
		ERdB:             p.MZI.ERdB,
		HeadlinePJPerBit: opt.TotalPJ(),
		OptimalSpacingNM: opt.WLSpacingNM,
		SavingPct:        saving * 100,
		SpeedupVs100MHz:  p.SpeedupVsElectronic(100),
	}, nil
}

// RenderSummary writes the paper-vs-measured anchor table.
func RenderSummary(w io.Writer, s SummaryAnchors) error {
	if _, err := fmt.Fprintln(w, "In-text anchors (paper vs this reproduction)"); err != nil {
		return err
	}
	t := NewTable("quantity", "paper", "measured")
	t.AddRow("min pump power (§V.A)", "591.8 mW", fmt.Sprintf("%.1f mW", s.PumpPowerMW))
	t.AddRow("MZI extinction ratio (§V.A)", "13.22 dB", fmt.Sprintf("%.2f dB", s.ERdB))
	t.AddRow("energy/bit @1 GHz, n=2 (abstract)", "20.1 pJ", fmt.Sprintf("%.1f pJ", s.HeadlinePJPerBit))
	t.AddRow("optimal WLspacing (§V.C)", "0.165 nm", fmt.Sprintf("%.3f nm", s.OptimalSpacingNM))
	t.AddRow("saving vs 1 nm (§V.C)", "76.6%", fmt.Sprintf("%.1f%%", s.SavingPct))
	t.AddRow("speedup vs 100 MHz ReSC (§V.C)", "10x", fmt.Sprintf("%.0fx", s.SpeedupVs100MHz))
	return t.Render(w)
}
