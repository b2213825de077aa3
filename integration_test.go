// Cross-package integration tests: end-to-end scenarios exercising
// the whole stack the way a user of the library would.
package repro_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	img "repro/internal/image"
	"repro/internal/numeric"
	"repro/internal/optics"
	"repro/internal/stochastic"
	"repro/internal/transient"
)

// TestEndToEndPaperPipeline walks the full §V story: design the
// reference circuit, verify its Fig. 5 bands, run a polynomial on it,
// cross-check the electronic baseline, then push it through the noisy
// transient simulator.
func TestEndToEndPaperPipeline(t *testing.T) {
	// 1. Design (§V.A).
	p, err := core.MRRFirst(core.MRRFirstSpec{
		Order:       2,
		WLSpacingNM: 1.0,
		ModShape:    core.Fig5ModulatorShape(),
		FilterShape: core.Fig5FilterShape(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.PumpPowerMW-591.8) > 0.5 {
		t.Fatalf("pump %g", p.PumpPowerMW)
	}
	// Use the paper's 1 mW probes rather than the BER-minimal ones.
	p.ProbePowerMW = 1.0
	c, err := core.NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Fig. 5(c) bands hold on the designed circuit.
	_, maxZ, minO, _ := c.PowerBands()
	if maxZ >= minO {
		t.Fatalf("bands overlap: %g vs %g", maxZ, minO)
	}

	// 3. Optical evaluation matches the electronic baseline.
	poly := stochastic.NewBernstein([]float64{0.3, 0.8, 0.5})
	unit, err := core.NewUnit(c, poly, 1001)
	if err != nil {
		t.Fatal(err)
	}
	resc, err := stochastic.NewReSCWithSeeds(poly, 2002)
	if err != nil {
		t.Fatal(err)
	}
	xs := numeric.Linspace(0, 1, 9)
	const bits = 1 << 13
	for _, x := range xs {
		want := poly.Eval(x)
		opt, _ := unit.Evaluate(x, bits)
		ele, _ := resc.Evaluate(x, bits)
		if math.Abs(opt-want) > 0.03 || math.Abs(ele-want) > 0.03 {
			t.Errorf("x=%g: optical %g electronic %g analytic %g", x, opt, ele, want)
		}
	}

	// 4. The noisy link at 1 mW probes is effectively error-free.
	sim := transient.NewSimulator(unit, 3003)
	ber, err := sim.MeasureWorstCaseBER(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if ber > 1e-3 {
		t.Errorf("transient BER %g at 1 mW probes", ber)
	}
}

// TestEndToEndImagePipeline runs gamma correction through the optical
// unit and checks the image quality a user would see.
func TestEndToEndImagePipeline(t *testing.T) {
	src := img.Gradient(64, 4)
	exact := img.GammaExact(src, 0.45)
	opt, err := img.GammaOptical(context.Background(), engine.WordParallel, src, 0.45, 6, 0.3, 2048, 4004)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := img.PSNR(exact, opt); psnr < 20 {
		t.Errorf("end-to-end PSNR %g dB", psnr)
	}
}

// TestEndToEndCalibratedDriftRecovery closes the loop between the
// control package and the core circuit: drift degrades the eye, the
// calibration loop's residual restores it.
func TestEndToEndCalibratedDriftRecovery(t *testing.T) {
	env, err := control.NewThermalEnvironment(5, 1e-3, 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	heater, err := control.NewHeater(0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	target := core.PaperParams().LambdaRefNM()
	ring := control.NewDriftedRing(target-0.5, env, heater)
	mon, err := control.NewMonitor(0.05, 1e-5, 8)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := control.NewLoop(ring, core.DenseFilterShape().At(ring.ColdResonanceNM), target, 1.0, mon)
	if err != nil {
		t.Fatal(err)
	}
	samples := loop.Run(3000)
	worst := 0.0
	for _, s := range samples[len(samples)/2:] {
		if a := math.Abs(s.MisalignNM); a > worst {
			worst = a
		}
	}
	eye := func(drift float64) float64 {
		p := core.PaperParams()
		p.FilterOffsetNM += drift
		return core.MustCircuit(p).EyeOpeningMW()
	}
	if lost := eye(0) - eye(worst); lost > 0.1*eye(0) {
		t.Errorf("locked residual %.4f nm still costs %.1f%% of the eye", worst, 100*lost/eye(0))
	}
}

// TestFigureHarnessSmoke renders every figure to one buffer — the
// `oscbench -fig all` path — and sanity-checks the anchors appear.
func TestFigureHarnessSmoke(t *testing.T) {
	var sb strings.Builder
	if err := dse.RenderFig5Case(&sb, dse.Fig5A()); err != nil {
		t.Fatal(err)
	}
	ctx, e := context.Background(), engine.WordParallel
	r, err := dse.Fig5C(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := dse.RenderFig5C(&sb, r); err != nil {
		t.Fatal(err)
	}
	s, err := dse.Summary(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := dse.RenderSummary(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, anchor := range []string{"591.8", "13.22", "0.165"} {
		if !strings.Contains(out, anchor) {
			t.Errorf("summary missing paper anchor %q", anchor)
		}
	}
}

// TestAPDEndToEnd exercises the future-work APD through the full
// design flow: the same BER target with less probe light.
func TestAPDEndToEnd(t *testing.T) {
	pin := core.DefaultDetector()
	apd := optics.PaperAPD(pin.NoiseCurrentA).EffectiveDetector()

	spec := core.MRRFirstSpec{Order: 2, WLSpacingNM: 0.165}
	basePin, err := core.MRRFirst(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Detector = apd
	baseAPD, err := core.MRRFirst(spec)
	if err != nil {
		t.Fatal(err)
	}
	if baseAPD.ProbePowerMW >= basePin.ProbePowerMW {
		t.Errorf("APD design probe %g not below pin %g", baseAPD.ProbePowerMW, basePin.ProbePowerMW)
	}
	// And the energy breakdown reflects it.
	ePin, eAPD := core.ParamsEnergy(basePin), core.ParamsEnergy(baseAPD)
	if eAPD.ProbePJ >= ePin.ProbePJ {
		t.Error("APD probe energy not reduced")
	}
}
