package dse

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// RenderEnergyChartASCII draws the Fig. 7(a) curves — pump ('P'),
// probe ('p') and total ('T') energy versus wavelength spacing — as a
// fixed-width ASCII chart, the text-mode analogue of the paper's
// figure. The y axis is linear in pJ, clipped to maxPJ (0 picks the
// largest finite sample).
func RenderEnergyChartASCII(w io.Writer, points []core.EnergyBreakdown, width, height int, maxPJ float64) error {
	if len(points) < 2 {
		return fmt.Errorf("dse: chart needs >= 2 points")
	}
	if width < 20 {
		width = 20
	}
	if height < 6 {
		height = 6
	}
	lo := points[0].WLSpacingNM
	hi := points[len(points)-1].WLSpacingNM
	if maxPJ <= 0 {
		for _, p := range points {
			maxPJ = math.Max(maxPJ, p.TotalPJ())
		}
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	plot := func(x, yPJ float64, r rune) {
		if yPJ > maxPJ {
			yPJ = maxPJ
		}
		col := int((x - lo) / (hi - lo) * float64(width-1))
		row := height - 1 - int(yPJ/maxPJ*float64(height-1))
		if col < 0 || col >= width || row < 0 || row >= height {
			return
		}
		// Total wins collisions so the optimum is visible.
		if grid[row][col] == 'T' && r != 'T' {
			return
		}
		grid[row][col] = r
	}
	for _, p := range points {
		plot(p.WLSpacingNM, p.PumpPJ, 'P')
		plot(p.WLSpacingNM, p.ProbePJ, 'p')
		plot(p.WLSpacingNM, p.TotalPJ(), 'T')
	}
	for i, line := range grid {
		label := "      | "
		switch i {
		case 0:
			label = fmt.Sprintf("%5.0f | ", maxPJ)
		case height - 1:
			label = "    0 | "
		}
		if _, err := fmt.Fprintf(w, "%s%s\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "        %-*.3f%*.3f nm\n", width/2, lo, width-width/2, hi); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "        P = pump laser, p = probe lasers, T = total (pJ/bit)")
	return err
}

// ApplicationProfileRow realizes the §V.C remark that the model lets
// a designer "estimate a circuit power consumption and throughput,
// taking into account the required polynomial degree": one row per
// application, with its degree, sized lasers and throughput.
type ApplicationProfileRow struct {
	Application string
	Order       int
	StreamLen   int
	Energy      core.EnergyBreakdown
	// ResultsPerSec is the output rate at 1 Gb/s streams.
	ResultsPerSec float64
	// AvgPowerMW is the average electrical laser power.
	AvgPowerMW float64
}

// ApplicationProfile sizes representative SC workloads at the optimal
// spacing: a 2nd-order polynomial kernel, the paper's running
// 3rd-order f1 (elevated to its degree), and 6th-order gamma
// correction. Each optimum search dispatches on e under ctx.
func ApplicationProfile(ctx context.Context, e engine.Engine) ([]ApplicationProfileRow, error) {
	apps := []struct {
		name   string
		order  int
		stream int
	}{
		{"order-2 polynomial kernel", 2, 256},
		{"f1(x) (paper Fig. 1b)", 3, 1024},
		{"gamma correction (§V.C)", 6, 4096},
	}
	out := make([]ApplicationProfileRow, 0, len(apps))
	for _, a := range apps {
		m := core.NewEnergyModel(a.order)
		opt, err := m.OptimalSpacingCtx(ctx, e, 0.1, 0.3)
		if err != nil {
			return nil, fmt.Errorf("dse: profiling %s: %w", a.name, err)
		}
		// Average power = energy per bit × bit rate.
		avgMW := opt.TotalPJ() * 1e-12 * 1e9 * 1e3 // pJ/bit × 1 Gb/s → mW
		out = append(out, ApplicationProfileRow{
			Application:   a.name,
			Order:         a.order,
			StreamLen:     a.stream,
			Energy:        opt,
			ResultsPerSec: 1e9 / float64(a.stream),
			AvgPowerMW:    avgMW,
		})
	}
	return out, nil
}

// RenderApplicationProfile writes the workload table.
func RenderApplicationProfile(w io.Writer, rows []ApplicationProfileRow) error {
	if _, err := fmt.Fprintln(w, "Application profile at the optimal spacing (1 Gb/s, §V.C)"); err != nil {
		return err
	}
	t := NewTable("application", "order", "stream", "energy (pJ/bit)", "avg power (mW)", "results/s")
	for _, r := range rows {
		t.AddRow(
			r.Application,
			fmt.Sprint(r.Order),
			fmt.Sprint(r.StreamLen),
			fmt.Sprintf("%.1f", r.Energy.TotalPJ()),
			fmt.Sprintf("%.2f", r.AvgPowerMW),
			fmt.Sprintf("%.3g", r.ResultsPerSec),
		)
	}
	return t.Render(w)
}
