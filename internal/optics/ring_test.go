package optics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRing() Ring {
	return Ring{
		SelfCoupling1: 0.96,
		SelfCoupling2: 0.96,
		Amplitude:     0.999,
		ResonanceNM:   1550,
		FSRNM:         10,
	}
}

func TestRingValidate(t *testing.T) {
	good := testRing()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
	bad := []Ring{
		{SelfCoupling1: 0, SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: 1550, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 1.2, Amplitude: 0.9, ResonanceNM: 1550, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: 0, ResonanceNM: 1550, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: -1, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: 1550, FSRNM: 0},
		{SelfCoupling1: math.NaN(), SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: 1550, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: math.NaN(), Amplitude: 0.9, ResonanceNM: 1550, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: math.NaN(), ResonanceNM: 1550, FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: math.NaN(), FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: math.Inf(1), FSRNM: 10},
		{SelfCoupling1: 0.9, SelfCoupling2: 0.9, Amplitude: 0.9, ResonanceNM: 1550, FSRNM: math.NaN()},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad ring %d accepted", i)
		}
	}
}

func TestRingResonanceIsTransmissionMinimum(t *testing.T) {
	r := testRing()
	onRes := r.Through(r.ResonanceNM, r.ResonanceNM)
	for _, d := range []float64{0.05, 0.1, 0.5, 1, 2} {
		off := r.Through(r.ResonanceNM+d, r.ResonanceNM)
		if off <= onRes {
			t.Errorf("through at +%.2fnm detuning (%g) not above on-resonance (%g)", d, off, onRes)
		}
	}
}

func TestRingDropPeakAtResonance(t *testing.T) {
	r := testRing()
	peak := r.Drop(r.ResonanceNM, r.ResonanceNM)
	for _, d := range []float64{0.05, 0.1, 0.5, 1, 2} {
		off := r.Drop(r.ResonanceNM+d, r.ResonanceNM)
		if off >= peak {
			t.Errorf("drop at +%.2fnm detuning (%g) not below peak (%g)", d, off, peak)
		}
	}
	if peak < 0.5 {
		t.Errorf("drop peak %g unexpectedly weak for a low-loss ring", peak)
	}
}

func TestRingEnergyConservationLossless(t *testing.T) {
	// With a = 1 (lossless), through + drop = 1 at every wavelength.
	r := testRing()
	r.Amplitude = 1
	for _, l := range []float64{1548, 1549.5, 1550, 1550.03, 1551, 1555} {
		sum := r.Through(l, r.ResonanceNM) + r.Drop(l, r.ResonanceNM)
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lossless ring: through+drop = %g at λ=%g", sum, l)
		}
	}
}

func TestRingPassivityProperty(t *testing.T) {
	// For any physical ring and wavelength, 0 <= through, drop and
	// through + drop <= 1 (passivity).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Ring{
			SelfCoupling1: 0.5 + 0.499*rng.Float64(),
			SelfCoupling2: 0.5 + 0.499*rng.Float64(),
			Amplitude:     0.9 + 0.1*rng.Float64(),
			ResonanceNM:   1550,
			FSRNM:         5 + 10*rng.Float64(),
		}
		l := 1545 + 10*rng.Float64()
		th := r.Through(l, r.ResonanceNM)
		dr := r.Drop(l, r.ResonanceNM)
		return th >= 0 && dr >= 0 && th+dr <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRingFSRPeriodicity(t *testing.T) {
	r := testRing()
	// The next resonance sits ~FSR away: drop transmission should
	// peak again near 1560.
	peak0 := r.Drop(r.ResonanceNM, r.ResonanceNM)
	// Scan for the next peak in [1555, 1565].
	best, bestL := 0.0, 0.0
	for l := 1555.0; l <= 1565; l += 0.001 {
		if d := r.Drop(l, r.ResonanceNM); d > best {
			best, bestL = d, l
		}
	}
	if math.Abs(best-peak0) > 0.05*peak0 {
		t.Errorf("next resonance peak %g differs from main peak %g", best, peak0)
	}
	if math.Abs(bestL-r.ResonanceNM-r.FSRNM) > 0.2 {
		t.Errorf("next resonance at %g, want ~%g", bestL, r.ResonanceNM+r.FSRNM)
	}
}

func TestRingDetunedResonanceMoves(t *testing.T) {
	r := testRing()
	shift := 0.5
	// When the resonance is blue-shifted by 0.5 nm, the drop peak
	// follows it.
	newRes := r.ResonanceNM - shift
	if got := r.Drop(newRes, newRes); got < 0.9*r.Drop(r.ResonanceNM, r.ResonanceNM) {
		t.Errorf("drop at shifted resonance = %g", got)
	}
	// And the original wavelength is now attenuated.
	if got := r.Drop(r.ResonanceNM, newRes); got > 0.5*r.Drop(r.ResonanceNM, r.ResonanceNM) {
		t.Errorf("drop at old resonance after shift = %g, should be attenuated", got)
	}
}

func TestRingFWHMMatchesScan(t *testing.T) {
	r := testRing()
	analytic := r.FWHMNM()
	peak := r.Drop(r.ResonanceNM, r.ResonanceNM)
	// Scan outward for the half-maximum crossing.
	var half float64
	for d := 0.0; d < 5; d += 1e-5 {
		if r.Drop(r.ResonanceNM+d, r.ResonanceNM) < peak/2 {
			half = d
			break
		}
	}
	scanned := 2 * half
	if math.Abs(scanned-analytic)/analytic > 0.05 {
		t.Errorf("FWHM scan %g vs analytic %g", scanned, analytic)
	}
}

func TestCriticallyCoupledAllPassNullsAtResonance(t *testing.T) {
	// An all-pass ring (r2 = 1) critically coupled (r1 = a).
	r := Ring{SelfCoupling1: 0.98, SelfCoupling2: 1, Amplitude: 0.98, ResonanceNM: 1550, FSRNM: 10}
	if got := r.Through(1550, r.ResonanceNM); got > 1e-10 {
		t.Errorf("critically coupled through at resonance = %g, want ~0", got)
	}
}

func TestRingModeOrder(t *testing.T) {
	r := testRing()
	if m := r.ModeOrder(); m != 155 {
		t.Errorf("ModeOrder = %g, want 155", m)
	}
}

func TestRingSymmetryAroundResonance(t *testing.T) {
	// The drop lineshape is symmetric to first order in detuning.
	r := testRing()
	for _, d := range []float64{0.01, 0.05, 0.1} {
		up := r.Drop(r.ResonanceNM+d, r.ResonanceNM)
		dn := r.Drop(r.ResonanceNM-d, r.ResonanceNM)
		if math.Abs(up-dn)/up > 0.02 {
			t.Errorf("asymmetry at ±%g nm: %g vs %g", d, up, dn)
		}
	}
}
