package dse

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optics"
)

// Fig5Case reproduces one of the worked examples of the paper's
// Fig. 5: a fixed coefficient pattern and data state, with the
// per-channel end-to-end transmissions and the received power.
type Fig5Case struct {
	Label string
	// Z is the coefficient pattern (z0, z1, z2); Weight the number
	// of '1' data bits.
	Z      []int
	Weight int
	// Totals[i] is the total transmission of probe i (paper quotes
	// 0.091 / 0.004 / 0.0002 for case (a)).
	Totals []float64
	// ReceivedMW is the photodetector power at 1 mW probes.
	ReceivedMW float64
	// FilterResonanceNM is the shifted filter position.
	FilterResonanceNM float64
}

// Fig5A returns the Fig. 5(a) case: z=(0,1,0), x1=x2=1.
func Fig5A() Fig5Case { return fig5Case("Fig 5(a): z=(0,1,0), x1=x2=1", []int{0, 1, 0}, 2) }

// Fig5B returns the Fig. 5(b) case: z=(1,1,0), x1=x2=0.
func Fig5B() Fig5Case { return fig5Case("Fig 5(b): z=(1,1,0), x1=x2=0", []int{1, 1, 0}, 0) }

func fig5Case(label string, z []int, weight int) Fig5Case {
	c := core.MustCircuit(core.PaperParams())
	return Fig5Case{
		Label:             label,
		Z:                 z,
		Weight:            weight,
		Totals:            c.ChannelTotals(weight, z),
		ReceivedMW:        c.ReceivedPowerMW(weight, z),
		FilterResonanceNM: c.FilterResonanceNM(weight),
	}
}

// RenderFig5Case writes the case's totals plus an ASCII spectrum of
// the modulator rings and the shifted filter.
func RenderFig5Case(w io.Writer, f Fig5Case) error {
	if _, err := fmt.Fprintln(w, f.Label); err != nil {
		return err
	}
	c := core.MustCircuit(core.PaperParams())
	t := NewTable("channel", "λ (nm)", "total transmission", "paper")
	paper := map[string][]string{
		"Fig 5(a): z=(0,1,0), x1=x2=1": {"0.0002", "0.004", "0.091"},
		"Fig 5(b): z=(1,1,0), x1=x2=0": {"0.476", "-", "-"},
	}
	for i, tot := range f.Totals {
		ref := "-"
		if p, ok := paper[f.Label]; ok && i < len(p) {
			ref = p[i]
		}
		t.AddRowf(fmt.Sprintf("λ%d", i), c.P.Lambda(i), tot, ref)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "received: %.4f mW; filter at %.3f nm\n\n", f.ReceivedMW, f.FilterResonanceNM); err != nil {
		return err
	}
	// Spectra: modulators at their modulated positions ('m'), filter
	// at its shifted position ('F').
	series := map[rune][]optics.SpectrumPoint{}
	lo, hi := c.P.Lambda(0)-0.8, c.P.LambdaRefNM()+0.4
	modSpectrum := func(lambda float64) float64 {
		tr := 1.0
		for wIdx, ring := range c.Modulators {
			res := ring.ResonanceNM
			if f.Z[wIdx] != 0 {
				res -= c.P.DeltaLambdaNM
			}
			tr *= ring.Through(lambda, res)
		}
		return tr
	}
	filterRes := f.FilterResonanceNM
	dropSpectrum := func(lambda float64) float64 {
		return c.Filter.Drop(lambda, filterRes)
	}
	series['m'] = optics.SampleSpectrum(modSpectrum, lo, hi, 100)
	series['F'] = optics.SampleSpectrum(dropSpectrum, lo, hi, 100)
	if err := optics.RenderSpectrumASCII(w, series, 100, 12); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "  m = modulator through spectrum, F = shifted filter drop spectrum")
	return err
}

// Fig5CRow is one bar of Fig. 5(c): a data state, a coefficient
// combination, the received power and the transmitted bit.
type Fig5CRow struct {
	Weight     int
	Z          []int
	ReceivedMW float64
	Bit        int
}

// Fig5CResult is the full enumeration plus the de-randomizer bands.
type Fig5CResult struct {
	Rows                             []Fig5CRow
	MinZero, MaxZero, MinOne, MaxOne float64
}

// Fig5C enumerates every (x-state, z-combination) of the paper
// design, as plotted in Fig. 5(c). The enumeration is a weight ×
// pattern grid evaluated on e under ctx; GridCtx returns rows in
// row-major order, so the table reads exactly as the serial loops did.
func Fig5C(ctx context.Context, e engine.Engine) (Fig5CResult, error) {
	c := core.MustCircuit(core.PaperParams())
	n := c.P.Order
	rows, err := GridCtx(ctx, e, n+1, 1<<(n+1), func(weight, pattern int) Fig5CRow {
		z := make([]int, n+1)
		for b := range z {
			z[b] = (pattern >> b) & 1
		}
		return Fig5CRow{
			Weight:     weight,
			Z:          z,
			ReceivedMW: c.ReceivedPowerMW(weight, z),
			Bit:        z[c.SelectedChannel(weight)],
		}
	})
	if err != nil {
		return Fig5CResult{}, err
	}
	res := Fig5CResult{Rows: rows}
	res.MinZero, res.MaxZero, res.MinOne, res.MaxOne = c.PowerBands()
	return res, nil
}

// RenderFig5C writes the enumeration table and the band summary.
func RenderFig5C(w io.Writer, r Fig5CResult) error {
	t := NewTable("x-state (weight)", "z2 z1 z0", "received (mW)", "bit")
	for _, row := range r.Rows {
		t.AddRowf(row.Weight, fmt.Sprintf("%d %d %d", row.Z[2], row.Z[1], row.Z[0]), row.ReceivedMW, row.Bit)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"'0' band: %.4f-%.4f mW (paper 0.092-0.099)\n'1' band: %.4f-%.4f mW (paper 0.477-0.482)\n",
		r.MinZero, r.MaxZero, r.MinOne, r.MaxOne)
	return err
}
