package dse

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optics"
)

// Fig6APoint is one cell of the Fig. 6(a) grid: the minimum probe
// power for an MZI with the given insertion loss and extinction ratio
// at 0.6 W pump and 1e-6 BER, designed with the MZI-first method.
type Fig6APoint struct {
	ILdB, ERdB  float64
	ProbeMW     float64
	WLSpacingNM float64
	Feasible    bool
}

// Fig6A sweeps the IL × ER grid of the paper's Fig. 6(a)
// (IL 3–7.4 dB, ER 4–7.6 dB). Each cell is a full MZI-first design
// solve; the grid fans out on e under ctx (GridCtx) and returns in
// row-major (IL-major) order, identical on every engine. Fewer than
// 2 points per axis are clamped to 2 (cmd/oscbench rejects such grids
// up front instead).
func Fig6A(ctx context.Context, e engine.Engine, ilPoints, erPoints int) ([]Fig6APoint, error) {
	if ilPoints < 2 {
		ilPoints = 2
	}
	if erPoints < 2 {
		erPoints = 2
	}
	return GridCtx(ctx, e, ilPoints, erPoints, func(i, j int) Fig6APoint {
		il := 3.0 + (7.4-3.0)*float64(i)/float64(ilPoints-1)
		er := 4.0 + (7.6-4.0)*float64(j)/float64(erPoints-1)
		pt := Fig6APoint{ILdB: il, ERdB: er}
		p, err := core.MZIFirst(core.MZIFirstSpec{
			Order:       2,
			MZI:         optics.MZI{ILdB: il, ERdB: er},
			PumpPowerMW: 600,
			TargetBER:   1e-6,
		})
		if err == nil {
			pt.ProbeMW = p.ProbePowerMW
			pt.WLSpacingNM = p.WLSpacingNM
			pt.Feasible = true
		}
		return pt
	})
}

// RenderFig6A writes the grid with IL rows and ER columns.
func RenderFig6A(w io.Writer, pts []Fig6APoint) error {
	if _, err := fmt.Fprintln(w, "Fig 6(a): min OPLaser_probe (mW) vs MZI IL (rows) and ER (cols); pump 0.6 W, BER 1e-6"); err != nil {
		return err
	}
	// Collect the distinct axes preserving order.
	var ils, ers []float64
	seenIL := map[float64]bool{}
	seenER := map[float64]bool{}
	for _, p := range pts {
		if !seenIL[p.ILdB] {
			seenIL[p.ILdB] = true
			ils = append(ils, p.ILdB)
		}
		if !seenER[p.ERdB] {
			seenER[p.ERdB] = true
			ers = append(ers, p.ERdB)
		}
	}
	header := []string{"IL\\ER dB"}
	for _, er := range ers {
		header = append(header, fmt.Sprintf("%.1f", er))
	}
	t := NewTable(header...)
	idx := func(il, er float64) *Fig6APoint {
		for i := range pts {
			if pts[i].ILdB == il && pts[i].ERdB == er {
				return &pts[i]
			}
		}
		return nil
	}
	for _, il := range ils {
		row := []string{fmt.Sprintf("%.1f", il)}
		for _, er := range ers {
			p := idx(il, er)
			switch {
			case p == nil:
				row = append(row, "?")
			case !p.Feasible:
				row = append(row, "inf")
			default:
				row = append(row, fmt.Sprintf("%.3f", p.ProbeMW))
			}
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "paper anchor: IL=6.5, ER=7.5 -> 0.26 mW")
	return err
}

// Fig6BPoint is one bar of Fig. 6(b): probe power vs BER target for
// the anchor MZI.
type Fig6BPoint struct {
	BER     float64
	ProbeMW float64
}

// Fig6B sizes the anchor design for each BER target. The paper uses
// {1e-2, 1e-4, 1e-6} and observes a 50 % probe-power reduction at
// 1e-2 relative to 1e-6. Targets fan out on e under ctx.
func Fig6B(ctx context.Context, e engine.Engine, targets []float64) ([]Fig6BPoint, error) {
	return SweepCtx(ctx, e, len(targets), func(i int) (Fig6BPoint, error) {
		ber := targets[i]
		p, err := core.MZIFirst(core.MZIFirstSpec{
			Order:       2,
			MZI:         optics.MZI{ILdB: 6.5, ERdB: 7.5},
			PumpPowerMW: 600,
			TargetBER:   ber,
		})
		if err != nil {
			return Fig6BPoint{}, fmt.Errorf("dse: Fig6B at BER %g: %w", ber, err)
		}
		return Fig6BPoint{BER: ber, ProbeMW: p.ProbePowerMW}, nil
	})
}

// RenderFig6B writes the BER table with the power-reduction ratio.
func RenderFig6B(w io.Writer, pts []Fig6BPoint) error {
	if _, err := fmt.Fprintln(w, "Fig 6(b): min OPLaser_probe vs targeted BER (anchor MZI, pump 0.6 W)"); err != nil {
		return err
	}
	t := NewTable("BER target", "probe (mW)", "vs 1e-6")
	var ref float64
	for _, p := range pts {
		if p.BER == 1e-6 {
			ref = p.ProbeMW
		}
	}
	for _, p := range pts {
		rel := "-"
		if ref > 0 {
			rel = fmt.Sprintf("%.0f%%", p.ProbeMW/ref*100)
		}
		t.AddRow(fmt.Sprintf("%.0e", p.BER), fmt.Sprintf("%.4f", p.ProbeMW), rel)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "paper: 1e-2 needs ~50% of the 1e-6 power")
	return err
}

// Fig6CPoint is one bar of Fig. 6(c): a published device with its
// speed, phase-shifter length and required probe power.
type Fig6CPoint struct {
	Device  core.MZIDevice
	ProbeMW float64
	Err     error
}

// Fig6C sizes the four library devices at 0.6 W pump and 1e-6 BER,
// one device per item on e under ctx. A device that cannot be sized
// is reported in its point's Err, not as the sweep's error.
func Fig6C(ctx context.Context, e engine.Engine) ([]Fig6CPoint, error) {
	lib := core.DeviceLibrary()
	return SweepCtx(ctx, e, len(lib), func(i int) (Fig6CPoint, error) {
		pt := Fig6CPoint{Device: lib[i]}
		p, err := core.MZIFirst(core.MZIFirstSpec{
			Order:       2,
			MZI:         lib[i].Dev,
			PumpPowerMW: 600,
			TargetBER:   1e-6,
		})
		if err != nil {
			pt.Err = err
		} else {
			pt.ProbeMW = p.ProbePowerMW
		}
		return pt, nil
	})
}

// RenderFig6C writes the device-comparison table.
func RenderFig6C(w io.Writer, pts []Fig6CPoint) error {
	if _, err := fmt.Fprintln(w, "Fig 6(c): min OPLaser_probe per published MZI (speed, phase-shifter length)"); err != nil {
		return err
	}
	t := NewTable("device", "IL dB", "ER dB", "speed Gb/s", "P.S.L. mm", "probe (mW)")
	for _, p := range pts {
		probe := "inf"
		if p.Err == nil && !math.IsInf(p.ProbeMW, 1) {
			probe = fmt.Sprintf("%.4f", p.ProbeMW)
		}
		t.AddRowf(p.Device.Name, p.Device.Dev.ILdB, p.Device.Dev.ERdB,
			p.Device.Dev.SpeedGbps, p.Device.Dev.PhaseShifterLenMM, probe)
	}
	return t.Render(w)
}
