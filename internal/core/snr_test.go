package core

import (
	"math"
	"testing"

	"repro/internal/optics"
)

func TestDefaultDetectorAnchorRoundTrip(t *testing.T) {
	// The calibration promise: the Fig. 6(a) anchor design (Xiao MZI,
	// 0.6 W pump, BER 1e-6) needs exactly 0.26 mW of probe power.
	p, err := MZIFirst(MZIFirstSpec{
		Order:       2,
		MZI:         optics.MZI{ILdB: 6.5, ERdB: 7.5},
		PumpPowerMW: 600,
		TargetBER:   1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.ProbePowerMW-0.26) > 0.005 {
		t.Errorf("anchor probe = %g mW, want 0.26", p.ProbePowerMW)
	}
}

func TestDefaultDetectorStable(t *testing.T) {
	a := DefaultDetector()
	b := DefaultDetector()
	if a != b {
		t.Error("DefaultDetector not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("calibrated detector invalid: %v", err)
	}
	// Noise floor should land in the tens of µA per A/W — the scale
	// the paper's probe powers imply.
	if a.NoiseCurrentA < 1e-6 || a.NoiseCurrentA > 1e-3 {
		t.Errorf("calibrated i_n/R = %g A, implausible", a.NoiseCurrentA)
	}
}

func TestChannelDeltaAllPositiveForPaperDesign(t *testing.T) {
	c := paperCircuit(t)
	for i := 0; i <= c.P.Order; i++ {
		if d := c.channelDeltaDirect(i); d <= 0 {
			t.Errorf("channel %d margin %g <= 0", i, d)
		}
	}
	delta, ch := c.WorstCaseDelta()
	if delta <= 0 || ch < 0 || ch > c.P.Order {
		t.Errorf("worst case = %g at channel %d", delta, ch)
	}
	// Worst case is the min.
	for i := 0; i <= c.P.Order; i++ {
		if c.channelDeltaDirect(i) < delta-1e-15 {
			t.Errorf("WorstCaseDelta missed channel %d", i)
		}
	}
}

func TestSNRAndBERConsistency(t *testing.T) {
	c := paperCircuit(t)
	snr := c.SNR()
	if snr <= 0 {
		t.Fatalf("SNR = %g", snr)
	}
	ber := c.BER()
	if want := optics.BERFromSNR(snr); math.Abs(ber-want) > 1e-18 && math.Abs(ber-want)/want > 1e-9 {
		t.Errorf("BER %g inconsistent with SNR %g", ber, snr)
	}
	// The §V.A design at 1 mW probes is comfortably below 1e-6.
	if ber > 1e-6 {
		t.Errorf("paper design BER = %g, expected deep margin", ber)
	}
}

func TestSNRScalesWithProbePower(t *testing.T) {
	p := PaperParams()
	c1 := MustCircuit(p)
	p.ProbePowerMW *= 2
	c2 := MustCircuit(p)
	r := c2.SNR() / c1.SNR()
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("SNR ratio for 2x probe = %g, want 2 (Eq. 8 is linear)", r)
	}
}

func TestMinProbePowerInversion(t *testing.T) {
	p := PaperParams()
	c := MustCircuit(p)
	for _, ber := range []float64{1e-2, 1e-4, 1e-6} {
		min := c.MinProbePowerMW(ber)
		if min <= 0 || math.IsInf(min, 1) {
			t.Fatalf("min probe for BER %g = %g", ber, min)
		}
		// Running the circuit at exactly that power hits the target.
		q := p
		q.ProbePowerMW = min
		got := MustCircuit(q).BER()
		if math.Abs(got-ber)/ber > 1e-6 {
			t.Errorf("BER at sized power = %g, want %g", got, ber)
		}
	}
}

func TestFig6bHalfPowerObservation(t *testing.T) {
	// Fig. 6(b): a 1e-2 target needs ~50 % of the 1e-6 probe power.
	c := paperCircuit(t)
	r := c.MinProbePowerMW(1e-2) / c.MinProbePowerMW(1e-6)
	if r < 0.45 || r > 0.55 {
		t.Errorf("power ratio 1e-2/1e-6 = %g, paper says ~0.5", r)
	}
}

func TestClosedEyeGivesInfinitePower(t *testing.T) {
	// Crush the extinction ratio so channels collide: margin < 0.
	p := PaperParams()
	p.WLSpacingNM = 0.05 // far below the ring linewidth
	p.MZI.ERdB = 13.22
	// Re-derive pump so states still target the (now colliding) comb.
	shift := p.FilterOffsetNM + float64(p.Order)*p.WLSpacingNM
	p.PumpPowerMW = p.OTE.PowerForShiftMW(shift) / p.MZI.ILFraction()
	c := MustCircuit(p)
	delta, _ := c.WorstCaseDelta()
	if delta > 0 {
		t.Skipf("margin unexpectedly positive (%g); collision point moved", delta)
	}
	if got := c.MinProbePowerMW(1e-6); !math.IsInf(got, 1) {
		t.Errorf("closed eye min power = %g, want +Inf", got)
	}
	if got := c.SNR(); got != 0 {
		t.Errorf("closed eye SNR = %g, want 0", got)
	}
	if got := c.BER(); got != 0.5 {
		t.Errorf("closed eye BER = %g, want 0.5", got)
	}
}

func TestWorstCaseDeltaOverZPositiveForPaperDesign(t *testing.T) {
	c := paperCircuit(t)
	d := c.WorstCaseDeltaOverZ()
	if d <= 0 {
		t.Errorf("full-pattern worst margin = %g", d)
	}
	// The exhaustive margin relates to the power bands directly.
	minZ, maxZ, minO, maxO := c.PowerBands()
	_ = minZ
	_ = maxO
	if want := (minO - maxZ) / c.P.ProbePowerMW; math.Abs(d-want) > 0.05*want {
		t.Errorf("WorstCaseDeltaOverZ = %g, bands imply ~%g", d, want)
	}
}
