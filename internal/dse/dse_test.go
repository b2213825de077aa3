package dse

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestFig5ACase(t *testing.T) {
	f := Fig5A()
	if len(f.Totals) != 3 {
		t.Fatalf("%d channels", len(f.Totals))
	}
	// Paper: totals (0.0002, 0.004, 0.091), received 0.0952 mW.
	if f.Totals[2] < 0.08 || f.Totals[2] > 0.11 {
		t.Errorf("λ2 = %g", f.Totals[2])
	}
	if f.ReceivedMW < 0.085 || f.ReceivedMW > 0.115 {
		t.Errorf("received = %g", f.ReceivedMW)
	}
	// Filter parked at λ2 = 1550 nm.
	if math.Abs(f.FilterResonanceNM-1550) > 0.01 {
		t.Errorf("filter at %g", f.FilterResonanceNM)
	}
}

func TestFig5BCase(t *testing.T) {
	f := Fig5B()
	if f.Totals[0] < 0.42 || f.Totals[0] > 0.56 {
		t.Errorf("λ0 = %g, paper 0.476", f.Totals[0])
	}
	if math.Abs(f.FilterResonanceNM-1548) > 0.01 {
		t.Errorf("filter at %g, want λ0=1548", f.FilterResonanceNM)
	}
}

func TestFig5CBandsAndRows(t *testing.T) {
	r, err := Fig5C(context.Background(), engine.WordParallel)
	if err != nil {
		t.Fatal(err)
	}
	// 3 weights × 8 patterns.
	if len(r.Rows) != 24 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.MaxZero >= r.MinOne {
		t.Errorf("bands overlap: %g vs %g", r.MaxZero, r.MinOne)
	}
	// Every row is inside its band.
	for _, row := range r.Rows {
		if row.Bit == 0 {
			if row.ReceivedMW < r.MinZero-1e-12 || row.ReceivedMW > r.MaxZero+1e-12 {
				t.Errorf("'0' row %v outside band", row)
			}
		} else if row.ReceivedMW < r.MinOne-1e-12 || row.ReceivedMW > r.MaxOne+1e-12 {
			t.Errorf("'1' row %v outside band", row)
		}
	}
}

func TestFig6AGridTrends(t *testing.T) {
	pts, err := Fig6A(context.Background(), engine.WordParallel, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 25 {
		t.Fatalf("%d points", len(pts))
	}
	// All feasible at 0.6 W pump, and probe power grows with IL at
	// fixed ER.
	byER := map[float64][]Fig6APoint{}
	for _, p := range pts {
		if !p.Feasible {
			t.Fatalf("infeasible point IL=%g ER=%g", p.ILdB, p.ERdB)
		}
		byER[p.ERdB] = append(byER[p.ERdB], p)
	}
	for er, col := range byER {
		for i := 1; i < len(col); i++ {
			if col[i].ProbeMW <= col[i-1].ProbeMW {
				t.Errorf("ER=%g: probe not increasing with IL (%g -> %g)", er, col[i-1].ProbeMW, col[i].ProbeMW)
			}
		}
	}
	// And falls with ER at fixed IL.
	byIL := map[float64][]Fig6APoint{}
	for _, p := range pts {
		byIL[p.ILdB] = append(byIL[p.ILdB], p)
	}
	for il, row := range byIL {
		for i := 1; i < len(row); i++ {
			if row[i].ProbeMW >= row[i-1].ProbeMW {
				t.Errorf("IL=%g: probe not decreasing with ER", il)
			}
		}
	}
}

func TestFig6BAnchorsAndHalving(t *testing.T) {
	pts, err := Fig6B(context.Background(), engine.WordParallel, []float64{1e-2, 1e-4, 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if math.Abs(pts[2].ProbeMW-0.26) > 0.005 {
		t.Errorf("1e-6 probe = %g, want 0.26", pts[2].ProbeMW)
	}
	ratio := pts[0].ProbeMW / pts[2].ProbeMW
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("1e-2/1e-6 = %g, paper ~0.5", ratio)
	}
}

func TestFig6CDevices(t *testing.T) {
	pts, err := Fig6C(context.Background(), engine.WordParallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d devices", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Errorf("%s: %v", p.Device.Name, p.Err)
			continue
		}
		if p.ProbeMW <= 0 || p.ProbeMW > 1 {
			t.Errorf("%s: probe %g mW outside the Fig 6(c) range", p.Device.Name, p.ProbeMW)
		}
	}
}

func TestFig7ASeries(t *testing.T) {
	series, err := Fig7A(context.Background(), engine.WordParallel, []int{2, 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) < 5 {
			t.Errorf("order %d: only %d feasible points", s.Order, len(s.Points))
		}
		if s.Optimum.TotalPJ() <= 0 {
			t.Errorf("order %d: optimum %v", s.Order, s.Optimum)
		}
		// The optimum beats the sweep endpoints.
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if s.Optimum.TotalPJ() > first.TotalPJ() || s.Optimum.TotalPJ() > last.TotalPJ() {
			t.Errorf("order %d: optimum not below endpoints", s.Order)
		}
	}
}

func TestFig7BRows(t *testing.T) {
	rows, err := Fig7B(context.Background(), engine.WordParallel, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.SavingPct < 55 || r.SavingPct > 90 {
			t.Errorf("order %d saving %.1f%%, paper 76.6%%", r.Order, r.SavingPct)
		}
		if i > 0 && rows[i].Fixed1nm.TotalPJ() <= rows[i-1].Fixed1nm.TotalPJ() {
			t.Error("fixed-spacing energy not increasing with order")
		}
	}
}

func TestSummaryAnchors(t *testing.T) {
	s, err := Summary(context.Background(), engine.WordParallel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.PumpPowerMW-591.8) > 0.5 {
		t.Errorf("pump %g", s.PumpPowerMW)
	}
	if math.Abs(s.ERdB-13.22) > 0.05 {
		t.Errorf("ER %g", s.ERdB)
	}
	if s.HeadlinePJPerBit < 15 || s.HeadlinePJPerBit > 26 {
		t.Errorf("headline %g pJ", s.HeadlinePJPerBit)
	}
	if s.SpeedupVs100MHz != 10 {
		t.Errorf("speedup %g", s.SpeedupVs100MHz)
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	if err := RenderFig5Case(&sb, Fig5A()); err != nil {
		t.Fatal(err)
	}
	r5c, err := Fig5C(context.Background(), engine.WordParallel)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderFig5C(&sb, r5c); err != nil {
		t.Fatal(err)
	}
	pts6a, err := Fig6A(context.Background(), engine.WordParallel, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderFig6A(&sb, pts6a); err != nil {
		t.Fatal(err)
	}
	pts, _ := Fig6B(context.Background(), engine.WordParallel, []float64{1e-2, 1e-6})
	if err := RenderFig6B(&sb, pts); err != nil {
		t.Fatal(err)
	}
	pts6c, err := Fig6C(context.Background(), engine.WordParallel)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderFig6C(&sb, pts6c); err != nil {
		t.Fatal(err)
	}
	series, _ := Fig7A(context.Background(), engine.WordParallel, []int{2}, 5)
	if err := RenderFig7A(&sb, series); err != nil {
		t.Fatal(err)
	}
	rows, _ := Fig7B(context.Background(), engine.WordParallel, []int{2})
	if err := RenderFig7B(&sb, rows); err != nil {
		t.Fatal(err)
	}
	s, _ := Summary(context.Background(), engine.WordParallel)
	if err := RenderSummary(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 6(a)", "Fig 6(b)", "Fig 6(c)", "Fig 7(a)", "Fig 7(b)", "591.8", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("a", "bb")
	tab.AddRow("xxx") // short row padded
	tab.AddRowf(1.23456789, "y")
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "xxx") || !strings.Contains(out, "1.235") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestStreamLengthSweep(t *testing.T) {
	rows, err := StreamLengthSweep(context.Background(), engine.WordParallel, []int{64, 4096}, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].RMSEElectronic >= rows[0].RMSEElectronic {
		t.Errorf("electronic RMSE did not fall with length: %g -> %g",
			rows[0].RMSEElectronic, rows[1].RMSEElectronic)
	}
	if rows[1].RMSEOptical >= rows[0].RMSEOptical {
		t.Errorf("optical RMSE did not fall with length: %g -> %g",
			rows[0].RMSEOptical, rows[1].RMSEOptical)
	}
	var sb strings.Builder
	if err := RenderStreamLengthSweep(&sb, rows, 9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "4096") {
		t.Errorf("render missing rows:\n%s", sb.String())
	}
	if _, err := StreamLengthSweep(context.Background(), engine.WordParallel, []int{0}, 9, 7); err == nil {
		t.Error("zero stream length accepted")
	}
}
