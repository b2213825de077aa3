package transient

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stochastic"
)

// The §V.D gating claim: with a pulse-based pump the filter is tuned
// only while the 26 ps pulse is present, so a detector sampling outside
// the pulse window sees the relaxed (untuned) filter and the
// computation fails. Detection must be synchronized to the pulse.

// SyncPoint is one sample of the detector-gating study: the sampling
// offset within the bit slot, the resulting bit-error rate, and
// whether the offset falls inside the pump pulse window.
type SyncPoint struct {
	OffsetS float64
	BER     float64
	InPulse bool
}

// String implements fmt.Stringer.
func (p SyncPoint) String() string {
	where := "outside pulse"
	if p.InPulse {
		where = "inside pulse"
	}
	return fmt.Sprintf("offset %6.1f ps: BER %.3g (%s)", p.OffsetS*1e12, p.BER, where)
}

// syncSalt separates the per-offset noise seeds of syncSweep from the
// batch trial streams derived from the same simulator seed.
const syncSalt = 0x6A09E667F3BCC908

// syncSweep measures the worst-case BER at `points` sampling offsets
// (slot midpoints) across one bit slot, with `bits` slots per offset:
// even slots carry the worst channel's '1' pattern, odd slots its '0'
// pattern. Inside the pulse window the levels are those of
// worstCasePair, with the filter tuned to the channel; outside it the
// filter rests at λref, where no probe channel aligns, so the '1'
// level collapses onto the '0' level and the BER rises toward 0.5.
// Offset k draws its noise from a generator seeded by the simulator's
// seed and k alone, leaving the simulator's own noise stream alone.
func syncSweep(s *Simulator, points, bits int) []SyncPoint {
	c := s.Unit.Circuit
	bitT, pulseT := c.P.BitPeriodS(), c.P.PulseWidthS
	if pulseT <= 0 || pulseT > bitT {
		pulseT = bitT
	}
	oneIn, zeroIn, threshold := s.worstCasePair()
	// The same two patterns with the pump off, the filter at its cold
	// resonance.
	_, worst := c.WorstCaseDelta()
	onePattern := make([]int, c.P.Order+1)
	onePattern[worst] = 1
	zeroPattern := make([]int, c.P.Order+1)
	for i := range zeroPattern {
		if i != worst {
			zeroPattern[i] = 1
		}
	}
	relaxed := func(z []int) float64 {
		sum := 0.0
		for i := range z {
			sum += c.P.ProbePowerMW * c.ProbeTransmission(i, z, 0)
		}
		return sum
	}
	oneOut, zeroOut := relaxed(onePattern), relaxed(zeroPattern)

	out := make([]SyncPoint, points)
	var noise [64]float64
	for k := range out {
		off := bitT * (float64(k) + 0.5) / float64(points)
		inPulse := off < pulseT
		oneLvl, zeroLvl := oneOut, zeroOut
		if inPulse {
			oneLvl, zeroLvl = oneIn, zeroIn
		}
		g := NewGaussian(stochastic.NewSplitMix64(stochastic.DeriveSeed(s.seed^syncSalt, k)))
		errs := 0
		for t := 0; t < bits; t += len(noise) {
			nb := min(len(noise), bits-t)
			g.FillScaled(noise[:nb], s.SigmaMW)
			for i, n := range noise[:nb] {
				lvl, one := oneLvl, (t+i)%2 == 0
				if !one {
					lvl = zeroLvl
				}
				if (lvl+n > threshold) != one {
					errs++
				}
			}
		}
		out[k] = SyncPoint{OffsetS: off, BER: float64(errs) / float64(bits), InPulse: inPulse}
	}
	return out
}

// worstInPulseBER returns the highest BER inside the pulse window.
func worstInPulseBER(pts []SyncPoint) float64 {
	worst := 0.0
	for _, p := range pts {
		if p.InPulse && p.BER > worst {
			worst = p.BER
		}
	}
	return worst
}

// bestOutOfPulseBER returns the lowest BER outside the pulse window
// (0 when every offset is inside): if even the best out-of-pulse
// offset is terrible, gating is mandatory.
func bestOutOfPulseBER(pts []SyncPoint) float64 {
	best := math.Inf(1)
	for _, p := range pts {
		if !p.InPulse {
			best = math.Min(best, p.BER)
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

func TestSyncSweepGatingMatters(t *testing.T) {
	// §V.D: detection must be synchronized to the 26 ps pump pulse.
	// Inside the pulse the link runs at its designed BER; outside it
	// the filter has relaxed and the error rate collapses to ~0.5.
	s := newTestSim(t, 0, 90)
	pts := syncSweep(s, 24, 4000)
	if len(pts) != 24 {
		t.Fatalf("%d points", len(pts))
	}
	in := worstInPulseBER(pts)
	out := bestOutOfPulseBER(pts)
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
	pts := syncSweep(s, 8, 2000)
	for _, p := range pts {
		if !p.InPulse {
			t.Fatalf("offset %g outside window despite CW pump", p.OffsetS)
		}
		if p.BER > 1e-3 {
			t.Errorf("CW offset %g: BER %g", p.OffsetS, p.BER)
		}
	}
	if got := bestOutOfPulseBER(pts); got != 0 {
		t.Errorf("no out-of-pulse points expected, got %g", got)
	}
}
