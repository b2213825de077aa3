package dse

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// StreamSweepRow is one stream length of the noiseless
// accuracy-vs-length study run through the word-parallel batch
// engines: RMSE of the electronic ReSC baseline and of the optical
// unit against the analytic Bernstein value, over a grid of inputs.
type StreamSweepRow struct {
	StreamLen      int
	RMSEElectronic float64
	RMSEOptical    float64
}

// StreamLengthSweep evaluates the paper's order-2 reference design
// across `points` inputs on [0, 1] for each stream length, using the
// batch evaluators (stochastic.EvaluateBatch and
// core.Unit.EvaluateBatch). It is the noiseless companion of the
// transient §V.B trade-off: only stochastic fluctuation remains, so
// RMSE falls like 1/√L.
//
// The lengths run in order, with ctx checked between them; each
// length's two batches dispatch on e, so the longest stream — most of
// the work — still spreads over the engine. Every stream derives its
// seed from (seed, input index) alone, so the table is identical on
// every engine. A nil engine is an error, and an interruption returns
// the context's error or the interrupted batch's *engine.Partial.
func StreamLengthSweep(ctx context.Context, e engine.Engine, lengths []int, points int, seed uint64) ([]StreamSweepRow, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if points < 2 {
		points = 2
	}
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})
	c, err := core.NewCircuit(core.PaperParams())
	if err != nil {
		return nil, err
	}
	unit, err := core.NewUnit(c, poly, seed)
	if err != nil {
		return nil, err
	}
	xs := numeric.Linspace(0, 1, points)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = poly.Eval(x)
	}
	rmse := func(got []float64) float64 {
		s := 0.0
		for i := range got {
			d := got[i] - want[i]
			s += d * d
		}
		return math.Sqrt(s / float64(len(got)))
	}
	for _, l := range lengths {
		if l < 1 {
			return nil, fmt.Errorf("dse: stream length %d, need >= 1", l)
		}
	}
	rows := make([]StreamSweepRow, len(lengths))
	for i, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ele, err := stochastic.EvaluateBatch(ctx, e, poly, xs, l, seed)
		if err != nil {
			return nil, err
		}
		opt, err := unit.EvaluateBatch(ctx, e, xs, l)
		if err != nil {
			return nil, err
		}
		rows[i] = StreamSweepRow{StreamLen: l, RMSEElectronic: rmse(ele), RMSEOptical: rmse(opt)}
	}
	return rows, nil
}

// RenderStreamLengthSweep writes the sweep table.
func RenderStreamLengthSweep(w io.Writer, rows []StreamSweepRow, points int) error {
	if _, err := fmt.Fprintf(w, "Noiseless accuracy vs stream length (%d inputs, batch engine)\n", points); err != nil {
		return err
	}
	t := NewTable("stream length", "RMSE electronic", "RMSE optical")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprint(r.StreamLen),
			fmt.Sprintf("%.4f", r.RMSEElectronic),
			fmt.Sprintf("%.4f", r.RMSEOptical),
		)
	}
	return t.Render(w)
}
