package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

func TestYieldPerfectWithoutVariation(t *testing.T) {
	p := PaperParams()
	r, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, VariationSpec{Samples: 20, Seed: 1, TargetBER: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Yield != 1 {
		t.Errorf("zero-variation yield = %g", r.Yield)
	}
	if r.Pass != 20 || r.Samples != 20 {
		t.Errorf("counts %d/%d", r.Pass, r.Samples)
	}
}

func TestYieldDegradesWithVariation(t *testing.T) {
	p := PaperParams()
	mild, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, VariationSpec{
		RingResonanceSigmaNM: 0.01,
		Samples:              60, Seed: 2, TargetBER: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	harsh, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, VariationSpec{
		RingResonanceSigmaNM: 0.3, // untrimmed fab-level variation
		CouplingSigma:        0.05,
		MZIILSigmaDB:         1,
		MZIERSigmaDB:         2,
		Samples:              60, Seed: 3, TargetBER: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mild.Yield < 0.9 {
		t.Errorf("mild (post-trim) variation yield = %g", mild.Yield)
	}
	if harsh.Yield >= mild.Yield {
		t.Errorf("harsh variation did not reduce yield: %g vs %g", harsh.Yield, mild.Yield)
	}
	if harsh.MeanBER <= mild.MeanBER {
		t.Errorf("harsh variation did not worsen BER: %g vs %g", harsh.MeanBER, mild.MeanBER)
	}
	if harsh.MeanEyeMW >= mild.MeanEyeMW {
		t.Errorf("harsh variation did not shrink the eye: %g vs %g", harsh.MeanEyeMW, mild.MeanEyeMW)
	}
}

func TestYieldReproducible(t *testing.T) {
	p := PaperParams()
	spec := VariationSpec{RingResonanceSigmaNM: 0.05, Samples: 30, Seed: 7, TargetBER: 1e-6}
	a, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results: %v vs %v", a, b)
	}
	spec.Seed = 8
	c, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds gave identical Monte-Carlo results")
	}
}

// TestYieldMatchesSerialOracle pins the parallel fan-out to a fixed
// per-die-seed oracle: a plain sequential loop fabricating die s from
// stochastic.DeriveSeed(Seed, s) must reproduce AnalyzeYield exactly,
// including the mean-BER/eye float sums (aggregation is serial and
// index-ordered in both).
func TestYieldMatchesSerialOracle(t *testing.T) {
	p := PaperParams()
	v := VariationSpec{
		RingResonanceSigmaNM: 0.08,
		CouplingSigma:        0.02,
		MZIILSigmaDB:         0.5,
		MZIERSigmaDB:         1,
		Samples:              40, Seed: 5, TargetBER: 1e-6,
	}
	got, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, v)
	if err != nil {
		t.Fatal(err)
	}
	want := YieldResult{Samples: v.Samples}
	sumBER, sumEye := 0.0, 0.0
	for s := 0; s < v.Samples; s++ {
		g := stochastic.NewGaussian(stochastic.NewSplitMix64(stochastic.DeriveSeed(v.Seed, s)))
		o := fabricateDie(p, v, g)
		sumBER += o.BER
		if o.BER > want.WorstBER {
			want.WorstBER = o.BER
		}
		if o.Structural {
			continue
		}
		sumEye += o.EyeMW
		if o.BER <= v.TargetBER {
			want.Pass++
		}
	}
	want.Yield = float64(want.Pass) / float64(v.Samples)
	want.MeanBER = sumBER / float64(v.Samples)
	want.MeanEyeMW = sumEye / float64(v.Samples)
	if got != want {
		t.Errorf("parallel %+v\n  oracle %+v", got, want)
	}
}

// TestYieldGOMAXPROCSDeterminism: the Monte-Carlo sweep is identical
// on one core and on all of them.
func TestYieldGOMAXPROCSDeterminism(t *testing.T) {
	p := PaperParams()
	spec := VariationSpec{
		RingResonanceSigmaNM: 0.1,
		CouplingSigma:        0.03,
		Samples:              50, Seed: 17, TargetBER: 1e-6,
	}
	multi, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	single, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if multi != single {
		t.Errorf("GOMAXPROCS changed the result:\n  multi  %+v\n  single %+v", multi, single)
	}
}

func TestYieldValidation(t *testing.T) {
	p := PaperParams()
	if _, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, VariationSpec{Samples: 0, TargetBER: 1e-6}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, VariationSpec{Samples: 5, TargetBER: 0.7}); err == nil {
		t.Error("bad BER target accepted")
	}
	p.Order = 0
	if _, err := AnalyzeYieldCtx(context.Background(), engine.WordParallel, p, VariationSpec{Samples: 5, TargetBER: 1e-6}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestYieldString(t *testing.T) {
	r := YieldResult{Samples: 10, Pass: 9, Yield: 0.9, MeanBER: 1e-8, WorstBER: 1e-3, MeanEyeMW: 0.35}
	if s := r.String(); !strings.Contains(s, "90.0%") {
		t.Errorf("String = %q", s)
	}
}
