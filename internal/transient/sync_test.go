package transient

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

// syncSweep runs SyncSweepCtx on the word-parallel engine, failing the
// test on an error.
func syncSweep(t *testing.T, s *Simulator, points, bits int) []SyncPoint {
	t.Helper()
	pts, err := s.SyncSweepCtx(context.Background(), engine.WordParallel, points, bits)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestSyncSweepGatingMatters(t *testing.T) {
	// §V.D: detection must be synchronized to the 26 ps pump pulse.
	// Inside the pulse the link runs at its designed BER; outside it
	// the filter has relaxed and the error rate collapses to ~0.5.
	s := newTestSim(t, 0, 90)
	pts := syncSweep(t, s, 24, 4000)
	if len(pts) != 24 {
		t.Fatalf("%d points", len(pts))
	}
	in := WorstInPulseBER(pts)
	out := WorstOutOfPulseBER(pts)
	if in > 1e-3 {
		t.Errorf("in-pulse BER %g, expected deep margin at 1 mW probes", in)
	}
	if out < 0.2 {
		t.Errorf("best out-of-pulse BER %g, expected catastrophic (~0.5)", out)
	}
	// The first sample (offset 0) is inside; the last is outside.
	if !pts[0].InPulse || pts[len(pts)-1].InPulse {
		t.Error("pulse-window classification wrong at the endpoints")
	}
	if !strings.Contains(pts[0].String(), "inside pulse") {
		t.Errorf("String() = %q", pts[0].String())
	}
}

func TestSyncSweepCWPumpHasNoWindow(t *testing.T) {
	// With a CW pump every offset is usable.
	s := newTestSim(t, 0, 91)
	s.Unit.Circuit.P.PulseWidthS = 0
	pts := syncSweep(t, s, 8, 2000)
	for _, p := range pts {
		if !p.InPulse {
			t.Fatalf("offset %g outside window despite CW pump", p.OffsetS)
		}
		if p.BER > 1e-3 {
			t.Errorf("CW offset %g: BER %g", p.OffsetS, p.BER)
		}
	}
	if got := WorstOutOfPulseBER(pts); got != 0 {
		t.Errorf("no out-of-pulse points expected, got %g", got)
	}
}

func TestSyncSweepDegeneratePoints(t *testing.T) {
	s := newTestSim(t, 0, 92)
	if got := syncSweep(t, s, 1, 100); len(got) != 2 {
		t.Errorf("clamped points = %d", len(got))
	}
}

// TestSyncSweepLeavesSerialNoiseStreamUntouched: the sweep draws from
// derived generators only, so interleaving it between two Evaluate
// calls must not perturb them.
func TestSyncSweepLeavesSerialNoiseStreamUntouched(t *testing.T) {
	a := newTestSim(t, 0.02, 95)
	b := newTestSim(t, 0.02, 95)
	if _, _, err := a.Evaluate(0.5, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Evaluate(0.5, 100); err != nil {
		t.Fatal(err)
	}
	syncSweep(t, a, 8, 200)
	va, _, err := a.Evaluate(0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	vb, _, err := b.Evaluate(0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if va != vb {
		t.Errorf("SyncSweep advanced the serial noise stream: %g vs %g", va, vb)
	}
}
