package dse

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestRingSensitivityTrend(t *testing.T) {
	rows, err := RingSensitivity(context.Background(), engine.WordParallel, []float64{0.75, 1.0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Feasible {
			t.Fatalf("scale %g infeasible", r.FWHMScale)
		}
	}
	// Wider filters leak more crosstalk, pushing the optimum to a
	// wider spacing and a higher total energy.
	if !(rows[2].OptSpacingNM > rows[0].OptSpacingNM) {
		t.Errorf("optimum spacing did not grow with linewidth: %v", rows)
	}
	if !(rows[2].OptTotalPJ > rows[0].OptTotalPJ) {
		t.Errorf("optimum energy did not grow with linewidth: %v", rows)
	}
	// Requested linewidth is realized.
	for _, r := range rows {
		want := rows[1].FilterFWHMNM * r.FWHMScale
		if math.Abs(r.FilterFWHMNM-want)/want > 0.02 {
			t.Errorf("scale %g: FWHM %g, want %g", r.FWHMScale, r.FilterFWHMNM, want)
		}
	}
}

func TestRingSensitivityUnrealizable(t *testing.T) {
	rows, err := RingSensitivity(context.Background(), engine.WordParallel, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Feasible {
		t.Error("negative scale reported feasible")
	}
}

func TestAPDComparison(t *testing.T) {
	rows, err := APDComparison(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	pin, apd := rows[0], rows[1]
	if apd.ProbeMW >= pin.ProbeMW {
		t.Errorf("APD probe %g not below pin %g", apd.ProbeMW, pin.ProbeMW)
	}
	if apd.ProbeEnergyPJ >= pin.ProbeEnergyPJ {
		t.Error("APD probe energy not reduced")
	}
	// The improvement should be meaningful (several-fold).
	if pin.ProbeMW/apd.ProbeMW < 2 {
		t.Errorf("APD improvement only %.2fx", pin.ProbeMW/apd.ProbeMW)
	}
}

func TestParallelScaling(t *testing.T) {
	rows, err := ParallelScaling([]int{1, 4, 16}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		tScale := rows[i].ThroughputResultsPerS / rows[0].ThroughputResultsPerS
		pScale := rows[i].TotalPowerMW / rows[0].TotalPowerMW
		want := float64(rows[i].Lanes)
		if math.Abs(tScale-want) > 1e-9 || math.Abs(pScale-want) > 1e-9 {
			t.Errorf("lane %d: throughput x%g power x%g, want x%g", rows[i].Lanes, tScale, pScale, want)
		}
		if math.Abs(rows[i].PowerDensityMWPerMM2-rows[0].PowerDensityMWPerMM2) > 1e-9 {
			t.Error("power density should be lane-invariant")
		}
	}
}

func TestAblationRenderers(t *testing.T) {
	var sb strings.Builder
	ring, err := RingSensitivity(context.Background(), engine.WordParallel, []float64{1.0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderRingSensitivity(&sb, ring); err != nil {
		t.Fatal(err)
	}
	rows, err := APDComparison(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderAPDComparison(&sb, rows, 1e-6); err != nil {
		t.Fatal(err)
	}
	ps, err := ParallelScaling([]int{1, 2}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderParallelScaling(&sb, ps, 128); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"linewidth", "infeasible", "APD", "Parallel array"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
