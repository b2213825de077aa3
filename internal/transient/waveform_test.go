package transient

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestTraceShapeAndGating(t *testing.T) {
	s := newTestSim(t, 0, 60)
	bits, spb := 8, 20
	tr, err := s.TraceCtx(context.Background(), engine.WordParallel, 0.5, bits, spb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != bits*spb {
		t.Fatalf("trace length %d", len(tr))
	}
	// Time strictly increasing.
	for i := 1; i < len(tr); i++ {
		if tr[i].TimeS <= tr[i-1].TimeS {
			t.Fatalf("time not increasing at %d", i)
		}
	}
	// The pump is pulsed: with 26 ps pulses in a 1 ns slot sampled
	// 20x, exactly the first sample of each slot is gated.
	gated, unGated := 0, 0
	for _, p := range tr {
		if p.Gated {
			gated++
			if p.PumpMW <= 0 {
				t.Error("gated sample without pump power")
			}
		} else {
			unGated++
			if p.PumpMW != 0 {
				t.Error("pump on outside pulse window")
			}
		}
		if p.ReceivedMW < 0 {
			t.Error("negative received power")
		}
	}
	if gated != bits {
		t.Errorf("gated samples = %d, want %d (one per slot)", gated, bits)
	}
	if unGated == 0 {
		t.Error("no ungated samples")
	}
}

func TestTraceCWGatesWholeSlot(t *testing.T) {
	s := newTestSim(t, 0, 61)
	s.Unit.Circuit.P.PulseWidthS = 0 // CW pump
	tr, err := s.TraceCtx(context.Background(), engine.WordParallel, 0.5, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr {
		if !p.Gated {
			t.Fatal("CW pump should gate the whole slot")
		}
	}
}

func TestTraceSampleClamping(t *testing.T) {
	s := newTestSim(t, 0, 62)
	tr, err := s.TraceCtx(context.Background(), engine.WordParallel, 0.5, 1, 1) // clamps to 2 samples per bit
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Errorf("clamped samples = %d", len(tr))
	}
}

// TestTraceRejectsBadBits is the regression for the silent empty trace
// a non-positive bit count used to produce: TraceCtx must reject it with
// an error, matching the length <= 0 contract of the evaluation entry
// points.
func TestTraceRejectsBadBits(t *testing.T) {
	s := newTestSim(t, 0, 64)
	for _, bits := range []int{0, -3} {
		if tr, err := s.TraceCtx(context.Background(), engine.WordParallel, 0.5, bits, 8); err == nil {
			t.Errorf("TraceCtx(bits=%d) returned %d points, want error", bits, len(tr))
		}
	}
}

func TestMeasureEyeSeparation(t *testing.T) {
	s := newTestSim(t, 0, 70)
	e := s.MeasureEyeOn(engine.WordParallel, 0.5, 20_000)
	if e.Count0 == 0 || e.Count1 == 0 {
		t.Fatalf("eye counts %d/%d", e.Count0, e.Count1)
	}
	// The paper-level design has a wide-open eye: mean separation far
	// beyond the noise.
	if e.Mean1 <= e.Mean0 {
		t.Errorf("means not separated: %g vs %g", e.Mean0, e.Mean1)
	}
	if e.OpeningMW <= 0 {
		t.Errorf("eye closed: %g", e.OpeningMW)
	}
	// Means approximate the Fig. 5(c) band centers (paper ~0.095 and
	// ~0.48 mW).
	if e.Mean0 < 0.05 || e.Mean0 > 0.15 {
		t.Errorf("'0' mean = %g, expected ~0.1", e.Mean0)
	}
	if e.Mean1 < 0.4 || e.Mean1 > 0.6 {
		t.Errorf("'1' mean = %g, expected ~0.5", e.Mean1)
	}
	// Sigmas near the injected noise level.
	if e.Sigma0 > 3*s.SigmaMW+0.01 || e.Sigma1 > 3*s.SigmaMW+0.01 {
		t.Errorf("sigmas %g/%g far above noise %g", e.Sigma0, e.Sigma1, s.SigmaMW)
	}
	if !strings.Contains(e.String(), "opening") {
		t.Error("String() malformed")
	}
}

func TestMeasureEyeDegenerateBits(t *testing.T) {
	s := newTestSim(t, 0, 73)
	e := s.MeasureEyeOn(engine.WordParallel, 0.5, 0)
	if e.Count0 != 0 || e.Count1 != 0 {
		t.Errorf("counts %d/%d for zero bits", e.Count0, e.Count1)
	}
}

func TestMeasureEyeClosesUnderNoise(t *testing.T) {
	s := newTestSim(t, 0, 71)
	s.SigmaMW = 0.5 // noise comparable to the signal swing
	e := s.MeasureEyeOn(engine.WordParallel, 0.5, 5_000)
	if e.OpeningMW > 0.2 {
		t.Errorf("eye unexpectedly open (%g) under heavy noise", e.OpeningMW)
	}
	if math.IsInf(e.OpeningMW, 0) {
		t.Error("opening not finite")
	}
}
