package dse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestRenderEnergyChart(t *testing.T) {
	m := core.NewEnergyModel(2)
	pts, err := m.SweepCtx(context.Background(), engine.WordParallel, 0.11, 0.3, 15)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderEnergyChartASCII(&sb, pts, 80, 16, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"P", "p", "T", "pJ/bit", "0.300"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Degenerate inputs.
	if err := RenderEnergyChartASCII(&sb, pts[:1], 80, 16, 0); err == nil {
		t.Error("single point accepted")
	}
	// Tiny dimensions clamp rather than fail.
	if err := RenderEnergyChartASCII(&sb, pts, 5, 2, 100); err != nil {
		t.Errorf("clamped chart failed: %v", err)
	}
}

func TestApplicationProfile(t *testing.T) {
	rows, err := ApplicationProfile(context.Background(), engine.WordParallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Energy per bit grows with order; throughput falls with stream
	// length.
	if !(rows[0].Energy.TotalPJ() < rows[1].Energy.TotalPJ() &&
		rows[1].Energy.TotalPJ() < rows[2].Energy.TotalPJ()) {
		t.Error("energy not increasing with order")
	}
	if !(rows[0].ResultsPerSec > rows[2].ResultsPerSec) {
		t.Error("throughput ordering wrong")
	}
	// Average power = pJ/bit at 1 Gb/s numerically equals mW.
	for _, r := range rows {
		if diff := r.AvgPowerMW - r.Energy.TotalPJ(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: avg power %g vs energy %g", r.Application, r.AvgPowerMW, r.Energy.TotalPJ())
		}
	}
	var sb strings.Builder
	if err := RenderApplicationProfile(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gamma correction") {
		t.Error("profile table missing rows")
	}
}
