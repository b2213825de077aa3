package dse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func smallNoiseSpec(t *testing.T) NoiseStudySpec {
	t.Helper()
	c, err := core.NewCircuit(core.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return NoiseStudySpec{
		X:          0.5,
		Lengths:    []int{32, 4096},
		ProbeMW:    []float64{core.PaperParams().ProbePowerMW, c.MinProbePowerMW(1e-2)},
		SigmaScale: []float64{1, 2},
		Trials:     40,
		BERBits:    50_000,
		Seed:       5,
	}
}

func TestNoiseStudyShape(t *testing.T) {
	spec := smallNoiseSpec(t)
	rows, err := NoiseStudy(context.Background(), engine.WordParallel, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(spec.ProbeMW) * len(spec.SigmaScale) * len(spec.Lengths)
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.RMSE <= 0 || r.SigmaMW <= 0 || r.AnalyticBER < 0 || r.MeasuredBER < 0 {
			t.Errorf("implausible row %+v", r)
		}
	}
	// Longer streams average fluctuation and transmission errors
	// away: within each (probe, sigma) combo, the 4096-bit RMSE must
	// sit below the 32-bit RMSE.
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i].StreamLen != 32 || rows[i+1].StreamLen != 4096 {
			t.Fatalf("unexpected row order: %+v", rows[i])
		}
		if rows[i+1].RMSE >= rows[i].RMSE {
			t.Errorf("probe %.3f σx%g: RMSE did not shrink: %g -> %g",
				rows[i].ProbeMW, rows[i].SigmaScale, rows[i].RMSE, rows[i+1].RMSE)
		}
	}
	// More probe power means a wider eye: the analytic BER at the
	// paper's 1 mW probes must undercut the 1e-2-sized link's at
	// equal sigma scale.
	if !(rows[0].AnalyticBER < rows[len(rows)-1].AnalyticBER) {
		t.Errorf("BER not improved by probe power: %g vs %g",
			rows[0].AnalyticBER, rows[len(rows)-1].AnalyticBER)
	}
}

func TestNoiseStudyDeterministic(t *testing.T) {
	spec := smallNoiseSpec(t)
	spec.Trials = 8
	spec.BERBits = 10_000
	a, err := NoiseStudy(context.Background(), engine.WordParallel, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NoiseStudy(context.Background(), engine.WordParallel, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d not reproducible: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNoiseStudyMeasuredTracksAnalytic(t *testing.T) {
	c, err := core.NewCircuit(core.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := NoiseStudySpec{
		X:       0.5,
		Lengths: []int{64},
		ProbeMW: []float64{c.MinProbePowerMW(1e-2)}, // hot link: ~500 errors expected
		Trials:  4,
		BERBits: 50_000,
		Seed:    11,
	}
	rows, err := NoiseStudy(context.Background(), engine.WordParallel, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0].MeasuredBER / rows[0].AnalyticBER
	if r < 0.6 || r > 1.6 {
		t.Errorf("measured %g vs analytic %g (ratio %.2f)", rows[0].MeasuredBER, rows[0].AnalyticBER, r)
	}
}

func TestNoiseStudyValidation(t *testing.T) {
	bad := []NoiseStudySpec{
		{X: 0.5, ProbeMW: []float64{1}},                                               // no lengths
		{X: 0.5, Lengths: []int{0}, ProbeMW: []float64{1}},                            // bad length
		{X: 0.5, Lengths: []int{64}},                                                  // no probes
		{X: 0.5, Lengths: []int{64}, ProbeMW: []float64{-1}},                          // bad probe
		{X: 0.5, Lengths: []int{64}, ProbeMW: []float64{1}, SigmaScale: []float64{0}}, // bad scale
	}
	for i, spec := range bad {
		if _, err := NoiseStudy(context.Background(), engine.WordParallel, spec); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestDefaultNoiseStudySpecRuns(t *testing.T) {
	spec, err := DefaultNoiseStudySpec()
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test time; keep the sweep structure.
	spec.Trials = 4
	spec.BERBits = 5_000
	spec.Lengths = []int{64, 256}
	rows, err := NoiseStudy(context.Background(), engine.WordParallel, spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderNoiseStudy(&sb, rows, spec); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Monte-Carlo noise study") || !strings.Contains(out, "analytic BER") {
		t.Errorf("render missing headers:\n%s", out)
	}
}
