// Benchmarks regenerating every table/figure of the paper (one bench
// per artifact) plus ablations of the design choices. Custom metrics report the reproduced quantities so that
// `go test -bench` output doubles as a results table:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	img "repro/internal/image"
	"repro/internal/netlist"
	"repro/internal/stochastic"
	"repro/internal/transient"
)

// BenchmarkFig1ReSC exercises the electronic ReSC baseline on the
// paper's Fig. 1(b) polynomial at x = 0.5 (expected value 0.5).
func BenchmarkFig1ReSC(b *testing.B) {
	poly := stochastic.PaperF1()
	unit, err := stochastic.NewReSCWithSeeds(poly, 1)
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, _ = unit.Evaluate(0.5, 1024)
	}
	b.ReportMetric(last, "f1(0.5)")
}

// BenchmarkFig5a regenerates the Fig. 5(a) channel totals.
func BenchmarkFig5a(b *testing.B) {
	var f dse.Fig5Case
	for i := 0; i < b.N; i++ {
		f = dse.Fig5A()
	}
	b.ReportMetric(f.Totals[2], "T(λ2)")
	b.ReportMetric(f.ReceivedMW, "rx_mW")
}

// BenchmarkFig5b regenerates the Fig. 5(b) data-'1' level.
func BenchmarkFig5b(b *testing.B) {
	var f dse.Fig5Case
	for i := 0; i < b.N; i++ {
		f = dse.Fig5B()
	}
	b.ReportMetric(f.Totals[0], "T(λ0)")
	b.ReportMetric(f.ReceivedMW, "rx_mW")
}

// BenchmarkFig5c enumerates all 24 (x, z) combinations and the
// de-randomizer bands.
func BenchmarkFig5c(b *testing.B) {
	var r dse.Fig5CResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = dse.Fig5C(context.Background(), engine.WordParallel); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxZero, "max0_mW")
	b.ReportMetric(r.MinOne, "min1_mW")
}

// BenchmarkMRRFirst runs the §V.A design (pump 591.8 mW, ER
// 13.22 dB).
func BenchmarkMRRFirst(b *testing.B) {
	var p core.Params
	var err error
	for i := 0; i < b.N; i++ {
		p, err = core.MRRFirst(core.MRRFirstSpec{
			Order:       2,
			WLSpacingNM: 1.0,
			ModShape:    core.Fig5ModulatorShape(),
			FilterShape: core.Fig5FilterShape(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.PumpPowerMW, "pump_mW")
	b.ReportMetric(p.MZI.ERdB, "ER_dB")
}

// BenchmarkFig6a sweeps the IL × ER grid (MZI-first at 0.6 W pump).
func BenchmarkFig6a(b *testing.B) {
	var pts []dse.Fig6APoint
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = dse.Fig6A(context.Background(), engine.WordParallel, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
	// Report the worst corner (max probe power).
	worst := 0.0
	for _, p := range pts {
		if p.Feasible && p.ProbeMW > worst {
			worst = p.ProbeMW
		}
	}
	b.ReportMetric(worst, "max_probe_mW")
}

// BenchmarkFig6b sizes the anchor design for the three BER targets.
func BenchmarkFig6b(b *testing.B) {
	var pts []dse.Fig6BPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = dse.Fig6B(context.Background(), engine.WordParallel, []float64{1e-2, 1e-4, 1e-6})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[2].ProbeMW, "probe@1e-6_mW")
	b.ReportMetric(pts[0].ProbeMW/pts[2].ProbeMW, "ratio_1e-2/1e-6")
}

// BenchmarkFig6c sizes the four published devices.
func BenchmarkFig6c(b *testing.B) {
	var pts []dse.Fig6CPoint
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = dse.Fig6C(context.Background(), engine.WordParallel); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Err == nil {
			b.ReportMetric(p.ProbeMW, "probe_mW_"+p.Device.Name[:4])
		}
	}
}

// BenchmarkFig7a runs the n=2 energy sweep with its optimum.
func BenchmarkFig7a(b *testing.B) {
	var series []dse.Fig7ASeries
	var err error
	for i := 0; i < b.N; i++ {
		series, err = dse.Fig7A(context.Background(), engine.WordParallel, []int{2}, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Optimum.WLSpacingNM, "opt_nm")
	b.ReportMetric(series[0].Optimum.TotalPJ(), "opt_pJ")
}

// BenchmarkFig7b runs the order sweep at 1 nm vs optimal spacing.
func BenchmarkFig7b(b *testing.B) {
	var rows []dse.Fig7BRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = dse.Fig7B(context.Background(), engine.WordParallel, []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Fixed1nm.TotalPJ(), "n2@1nm_pJ")
	b.ReportMetric(rows[1].Fixed1nm.TotalPJ(), "n8@1nm_pJ")
	b.ReportMetric(rows[0].SavingPct, "saving_pct")
}

// BenchmarkEnergyPerBit evaluates the headline §V.C energy at the
// optimal spacing (paper: 20.1 pJ/bit).
func BenchmarkEnergyPerBit(b *testing.B) {
	m := core.NewEnergyModel(2)
	var opt core.EnergyBreakdown
	var err error
	for i := 0; i < b.N; i++ {
		opt, err = m.OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.1, 0.3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(opt.TotalPJ(), "pJ_per_bit")
}

// BenchmarkOpticalUnitStep measures the per-bit cost of the cached
// end-to-end optical unit.
func BenchmarkOpticalUnitStep(b *testing.B) {
	c := core.MustCircuit(core.PaperParams())
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ones := 0
	for i := 0; i < b.N; i++ {
		ones += u.Step(0.5, 0).Bit
	}
	_ = ones
}

// BenchmarkGammaCorrection runs the §V.C application on the optical
// unit (64×64 image, degree 6).
func BenchmarkGammaCorrection(b *testing.B) {
	src := img.Radial(64, 64)
	exact := img.GammaExact(src, 0.45)
	var psnr float64
	for i := 0; i < b.N; i++ {
		out, err := img.GammaOptical(context.Background(), engine.WordParallel, src, 0.45, 6, 0.3, 1024, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		psnr = img.PSNR(exact, out)
	}
	b.ReportMetric(psnr, "PSNR_dB")
}

// BenchmarkGammaReSC contrasts the bit-serial ReSC gamma LUT build
// against img.GammaReSC's word-parallel batch on the WordParallel
// engine (≥5× expected: ~5× from 64-bit packing alone, times the core
// count).
func BenchmarkGammaReSC(b *testing.B) {
	src := img.Radial(64, 64)
	const gamma, degree, streamLen, seed = 0.45, 6, 1024, 11
	poly, _, err := stochastic.GammaCorrection(gamma, degree)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < 256; v++ {
				unit, err := stochastic.NewReSCWithSeeds(poly, stochastic.DeriveSeed(seed, v))
				if err != nil {
					b.Fatal(err)
				}
				unit.Evaluate(float64(v)/255, streamLen)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var out *img.Gray
		for i := 0; i < b.N; i++ {
			var err error
			out, err = img.GammaReSC(context.Background(), engine.WordParallel, src, gamma, degree, streamLen, seed)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(img.PSNR(img.GammaExact(src, gamma), out), "PSNR_dB")
	})
}

// BenchmarkRobertsCross measures the packed tiled edge engine at the
// paper-scale stream length, on one core and on the tile pool. The
// checkerboard is the canonical edge test card, where the engine's
// flat-window elision kicks in; the dense radial image defeats the
// elision and isolates the fused word-kernel cost alone.
func BenchmarkRobertsCross(b *testing.B) {
	const streamLen, seed = 4096, 7
	run := func(name string, singleCore bool, src *img.Gray, f func(*img.Gray) (*img.Gray, error)) {
		b.Run(name, func(b *testing.B) {
			if singleCore {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			exact := img.RobertsCrossExact(src)
			var out *img.Gray
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err = f(src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(img.PSNR(exact, out), "PSNR_dB")
		})
	}
	packed := func(src *img.Gray) (*img.Gray, error) {
		return img.RobertsCrossSCOn(engine.WordParallel, src, streamLen, seed)
	}
	board := img.Checkerboard(64, 64, 8, 30, 220)
	dense := img.Radial(64, 64)
	run("packed-1core", true, board, packed)
	run("packed", false, board, packed)
	run("dense-packed-1core", true, dense, packed)
}

// BenchmarkGammaOptical is the optical-unit counterpart: per-level
// bit-serial evaluation vs the unit's word-parallel EvaluateBatch.
func BenchmarkGammaOptical(b *testing.B) {
	src := img.Radial(64, 64)
	const gamma, streamLen = 0.45, 1024
	poly, _, err := stochastic.GammaCorrection(gamma, 6)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.MRRFirst(core.MRRFirstSpec{Order: 6, WLSpacingNM: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	c := core.MustCircuit(p)
	u, err := core.NewUnit(c, poly, 12)
	if err != nil {
		b.Fatal(err)
	}
	levels := make([]float64, 256)
	for v := range levels {
		levels[v] = float64(v) / 255
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range levels {
				u.Evaluate(x, streamLen)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := u.EvaluateBatch(context.Background(), engine.WordParallel, levels, streamLen); err != nil {
				b.Fatal(err)
			}
		}
	})
	// End-to-end check of the batched image path at the same settings.
	out, err := img.GammaOptical(context.Background(), engine.WordParallel, src, gamma, 6, 0.3, streamLen, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(img.PSNR(img.GammaExact(src, gamma), out), "PSNR_dB")
}

// BenchmarkTransient measures the noisy time-domain simulator and
// reports measured-vs-analytic worst-case BER agreement.
func BenchmarkTransient(b *testing.B) {
	p := core.PaperParams()
	p.ProbePowerMW = core.MustCircuit(p).MinProbePowerMW(1e-3)
	c := core.MustCircuit(p)
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 5)
	if err != nil {
		b.Fatal(err)
	}
	sim := transient.NewSimulator(u, 6)
	var measured float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if measured, err = sim.MeasureWorstCaseBER(100_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(measured, "BER_measured")
	b.ReportMetric(sim.AnalyticWorstCaseBER(), "BER_analytic")
}

// --- Ablations of the design choices ---

// BenchmarkAblationWorstCaseSNR compares Eq. (8)'s one-hot crosstalk
// margin against the exhaustive worst-case-over-z margin.
func BenchmarkAblationWorstCaseSNR(b *testing.B) {
	c := core.MustCircuit(core.PaperParams())
	var eq8, full float64
	for i := 0; i < b.N; i++ {
		eq8, _ = c.WorstCaseDelta()
		full = c.WorstCaseDeltaOverZ()
	}
	b.ReportMetric(eq8, "eq8_margin")
	b.ReportMetric(full, "exhaustive_margin")
}

// BenchmarkAblationPulseVsCW quantifies the 26 ps pulse-based pump's
// energy advantage (§V.C).
func BenchmarkAblationPulseVsCW(b *testing.B) {
	p, err := core.MRRFirst(core.MRRFirstSpec{Order: 2, WLSpacingNM: 0.165})
	if err != nil {
		b.Fatal(err)
	}
	var pulsed, cw core.EnergyBreakdown
	for i := 0; i < b.N; i++ {
		pulsed = core.ParamsEnergy(p)
		q := p
		q.PulseWidthS = 0
		cw = core.ParamsEnergy(q)
	}
	b.ReportMetric(pulsed.TotalPJ(), "pulsed_pJ")
	b.ReportMetric(cw.TotalPJ(), "cw_pJ")
}

// BenchmarkAblationAPD compares the calibrated pin detector against
// the future-work APD [21] at the same BER target.
func BenchmarkAblationAPD(b *testing.B) {
	var rows []dse.APDComparisonRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = dse.APDComparison(1e-6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ProbeMW, "pin_probe_mW")
	b.ReportMetric(rows[1].ProbeMW, "apd_probe_mW")
}

// BenchmarkAblationRingLinewidth reports how the Fig. 7 optimum moves
// with the (unpublished) filter linewidth.
func BenchmarkAblationRingLinewidth(b *testing.B) {
	var rows []dse.RingSensitivityRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = dse.RingSensitivity(context.Background(), engine.WordParallel, []float64{0.75, 1.0, 1.5}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Feasible {
			b.ReportMetric(r.OptSpacingNM, fmt.Sprintf("opt_nm@%.2fx", r.FWHMScale))
		}
	}
}

// BenchmarkMeasureEye measures the word-parallel eye measurement
// (core.Unit.Cycles + block noise).
func BenchmarkMeasureEye(b *testing.B) {
	c := core.MustCircuit(core.PaperParams())
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 5)
	if err != nil {
		b.Fatal(err)
	}
	sim := transient.NewSimulator(u, 6)
	const bits = 20_000
	b.Run("words", func(b *testing.B) {
		var e transient.EyeStats
		var err error
		for i := 0; i < b.N; i++ {
			if e, err = sim.MeasureEyeCtx(context.Background(), engine.WordParallel, 0.5, bits); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(e.OpeningMW, "opening_mW")
	})
}

// BenchmarkFig6aSweep measures the multi-core Fig. 6(a) grid (one full
// MZI-first solve per cell) at the oscbench default resolution —
// near-linear scaling across the 1-core and all-core variants is the
// sweep engine's contract.
func BenchmarkFig6aSweep(b *testing.B) {
	run := func(name string, singleCore bool) {
		b.Run(name, func(b *testing.B) {
			if singleCore {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			var pts []dse.Fig6APoint
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if pts, err = dse.Fig6A(context.Background(), engine.WordParallel, 6, 6); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			worst := 0.0
			for _, p := range pts {
				if p.Feasible && p.ProbeMW > worst {
					worst = p.ProbeMW
				}
			}
			b.ReportMetric(worst, "max_probe_mW")
		})
	}
	run("1core", true)
	run("allcores", false)
}

// BenchmarkFig7aSweep measures the parallel Fig. 7(a) energy sweep
// (orders × spacings, one MRR-first solve per point).
func BenchmarkFig7aSweep(b *testing.B) {
	run := func(name string, singleCore bool) {
		b.Run(name, func(b *testing.B) {
			if singleCore {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			var series []dse.Fig7ASeries
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				series, err = dse.Fig7A(context.Background(), engine.WordParallel, []int{2, 4, 6}, 11)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(series[0].Optimum.TotalPJ(), "n2_opt_pJ")
		})
	}
	run("1core", true)
	run("allcores", false)
}

// BenchmarkRingSensitivitySweep measures the parallel ablation sweep
// (one energy-optimum search per linewidth scale).
func BenchmarkRingSensitivitySweep(b *testing.B) {
	scales := []float64{0.75, 1.0, 1.25, 1.5}
	run := func(name string, singleCore bool) {
		b.Run(name, func(b *testing.B) {
			if singleCore {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			var rows []dse.RingSensitivityRow
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if rows, err = dse.RingSensitivity(context.Background(), engine.WordParallel, scales); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(rows[1].OptSpacingNM, "opt_nm@1x")
		})
	}
	run("1core", true)
	run("allcores", false)
}

// BenchmarkYieldDie measures one fabricated die's analysis — circuit
// build, Eq. (8) margin, BER and eye scan — the cached-circuit
// consumer the PowerTable/factor caches speed up (the die runs its
// band scan off one shared factor tabulation instead of re-evaluating
// ring Lorentzians per (weight, z) state).
func BenchmarkYieldDie(b *testing.B) {
	p := core.PaperParams()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var r core.YieldResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = core.AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, core.VariationSpec{
			RingResonanceSigmaNM: 0.05,
			Samples:              1,
			Seed:                 7,
			TargetBER:            1e-6,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanBER, "die_BER")
}

// BenchmarkCalibrationLoop measures the future-work (i) control loop:
// steady-state misalignment under ±5 K drift.
func BenchmarkCalibrationLoop(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		env, err := control.NewThermalEnvironment(5, 1e-3, 0.02, uint64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		heater, err := control.NewHeater(0.25, 4)
		if err != nil {
			b.Fatal(err)
		}
		target := 1550.1
		ring := control.NewDriftedRing(target-0.5, env, heater)
		mon, err := control.NewMonitor(0.05, 1e-5, uint64(43+i))
		if err != nil {
			b.Fatal(err)
		}
		loop, err := control.NewLoop(ring, core.DenseFilterShape().At(ring.ColdResonanceNM), target, 1.0, mon)
		if err != nil {
			b.Fatal(err)
		}
		samples := loop.Run(2000)
		worst = 0
		for _, s := range samples[1000:] {
			if a := math.Abs(s.MisalignNM); a > worst {
				worst = a
			}
		}
	}
	b.ReportMetric(worst, "locked_nm")
}

// BenchmarkYield runs the Monte-Carlo process-variation analysis.
func BenchmarkYield(b *testing.B) {
	p := core.PaperParams()
	var r core.YieldResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = core.AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, core.VariationSpec{
			RingResonanceSigmaNM: 0.05,
			Samples:              100,
			Seed:                 7,
			TargetBER:            1e-6,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Yield, "yield")
}

// BenchmarkNetlistElaborate measures deck parsing plus elaboration.
func BenchmarkNetlistElaborate(b *testing.B) {
	deck := "order 2\npoly 0.25 0.625 0.75\nprobe 1.0\n"
	for i := 0; i < b.N; i++ {
		d, err := netlist.Parse(strings.NewReader(deck))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netlist.Elaborate(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpacing compares the fixed 1 nm comb of §V.A
// against the Fig. 7 optimum.
func BenchmarkAblationSpacing(b *testing.B) {
	m := core.NewEnergyModel(2)
	var fixed, opt core.EnergyBreakdown
	var err error
	for i := 0; i < b.N; i++ {
		fixed, err = m.Breakdown(1.0)
		if err != nil {
			b.Fatal(err)
		}
		opt, err = m.OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.1, 0.3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fixed.TotalPJ(), "fixed1nm_pJ")
	b.ReportMetric(opt.TotalPJ(), "optimal_pJ")
}
