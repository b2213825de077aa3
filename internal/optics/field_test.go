package optics_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/optics"
)

func TestCouplerUnitary(t *testing.T) {
	c, err := NewCoupler(0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Power conservation for arbitrary inputs.
	f := func(ar, ai, br, bi float64) bool {
		a := complex(math.Mod(ar, 1), math.Mod(ai, 1))
		b := complex(math.Mod(br, 1), math.Mod(bi, 1))
		bar, cross := c.Scatter(a, b)
		in := intensity(a) + intensity(b)
		out := intensity(bar) + intensity(cross)
		return math.Abs(in-out) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCouplerValidation(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.1} {
		if _, err := NewCoupler(bad); err == nil {
			t.Errorf("coupler t=%g accepted", bad)
		}
	}
}

func TestArmPropagation(t *testing.T) {
	a := Arm{Amplitude: 0.5, PhaseRad: math.Pi}
	e := a.Propagate(1)
	if math.Abs(real(e)+0.5) > 1e-12 || math.Abs(imag(e)) > 1e-12 {
		t.Errorf("Propagate = %v, want -0.5", e)
	}
}

// TestRingMatchesPaperEq2And3 is the central cross-validation: the
// complex-field ring reproduces the paper's intensity formulas
// (implemented independently in internal/optics) at every detuning.
func TestRingMatchesPaperEq2And3(t *testing.T) {
	shapes := []struct{ t1, t2, a float64 }{
		{0.95653, 0.977672, 0.9995}, // Fig 5 modulator calibration
		{0.971998, 0.971998, 0.9995},
		{0.97959, 0.98980, 0.9995},
		{0.9, 0.8, 0.99},
	}
	for _, s := range shapes {
		ring, err := NewRing(s.t1, s.t2, s.a)
		if err != nil {
			t.Fatal(err)
		}
		ref := optics.Ring{
			SelfCoupling1: s.t1, SelfCoupling2: s.t2, Amplitude: s.a,
			ResonanceNM: 1550, FSRNM: 10,
		}
		for _, lam := range []float64{1548, 1549.5, 1549.95, 1550, 1550.05, 1551, 1553} {
			theta := ref.Phase(lam, 1550)
			through := ring.ThroughIntensity(theta)
			drop := ring.DropIntensity(theta)
			if w := ref.Through(lam, 1550); math.Abs(through-w) > 1e-12 {
				t.Errorf("t1=%g t2=%g λ=%g: field through %g vs Eq.2 %g", s.t1, s.t2, lam, through, w)
			}
			if w := ref.Drop(lam, 1550); math.Abs(drop-w) > 1e-12 {
				t.Errorf("t1=%g t2=%g λ=%g: field drop %g vs Eq.3 %g", s.t1, s.t2, lam, drop, w)
			}
		}
	}
}

func TestRingSeriesConvergesToClosedForm(t *testing.T) {
	ring, err := NewRing(0.96, 0.97, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0, 0.01, 0.1, math.Pi / 2, math.Pi} {
		ct := ring.ThroughAmplitude(theta)
		cd := ring.DropAmplitude(theta)
		st := ring.ThroughAmplitudeSeries(theta, 400)
		sd := ring.DropAmplitudeSeries(theta, 400)
		if d := intensity(ct - st); d > 1e-18 {
			t.Errorf("θ=%g: through series residual %g", theta, d)
		}
		if d := intensity(cd - sd); d > 1e-18 {
			t.Errorf("θ=%g: drop series residual %g", theta, d)
		}
	}
	// Truncating at a handful of trips is visibly wrong on resonance
	// (the feedback has not built up) — the series really is a loop.
	short := ring.DropAmplitudeSeries(0, 2)
	full := ring.DropAmplitude(0)
	if math.Abs(intensity(short)-intensity(full)) < 0.05 {
		t.Error("2-trip truncation unexpectedly accurate; loop feedback absent?")
	}
}

func TestFieldRingEnergyConservationLossless(t *testing.T) {
	ring, err := NewRing(0.95, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) bool {
		theta := math.Mod(x, 2*math.Pi)
		total := ring.ThroughIntensity(theta) + ring.DropIntensity(theta)
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0, 0.9, 0.99); err == nil {
		t.Error("bad t1 accepted")
	}
	if _, err := NewRing(0.9, 1.5, 0.99); err == nil {
		t.Error("bad t2 accepted")
	}
	if _, err := NewRing(0.9, 0.9, 0); err == nil {
		t.Error("bad amplitude accepted")
	}
}

// TestMZIMatchesBehavioralModel proves the complex MZI's cross-port
// intensity equals the behavioural curve IL%·(ER% + (1−ER%)·cos²(φ/2))
// at every phase, and the logic levels of Eq. (7b) at φ = 0 and π, for
// the paper's device corpus.
func TestMZIMatchesBehavioralModel(t *testing.T) {
	devices := []optics.MZI{
		{ILdB: 4.5, ERdB: 13.22},
		{ILdB: 6.5, ERdB: 7.5},
		{ILdB: 3.0, ERdB: 4.0},
		{ILdB: 7.4, ERdB: 7.6},
	}
	for _, dev := range devices {
		m, err := FromILER(dev.ILFraction(), dev.ERFraction())
		if err != nil {
			t.Fatal(err)
		}
		for phi := 0.0; phi <= math.Pi+1e-9; phi += math.Pi / 32 {
			got := m.CrossIntensity(phi)
			c, er := math.Cos(phi/2), dev.ERFraction()
			want := dev.ILFraction() * (er + (1-er)*c*c)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v φ=%g: field %g vs behavioural %g", dev, phi, got, want)
			}
		}
		// Logic levels of Eq. (7b).
		if got := m.CrossIntensity(0); math.Abs(got-dev.Transmission(0)) > 1e-12 {
			t.Errorf("%v: T(0) field %g", dev, got)
		}
		if got := m.CrossIntensity(math.Pi); math.Abs(got-dev.Transmission(1)) > 1e-12 {
			t.Errorf("%v: T(1) field %g", dev, got)
		}
	}
}

func TestMZIEnergyAccounting(t *testing.T) {
	// Lossless arms: bar + cross = 1 at every phase.
	m, err := NewMZI(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) bool {
		phi := math.Mod(x, 2*math.Pi)
		return math.Abs(m.TotalOutput(phi)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Lossy arms: total output equals the average arm power loss.
	lossy, _ := NewMZI(0.8, 0.6)
	want := (0.8*0.8 + 0.6*0.6) / 2
	if got := lossy.TotalOutput(0.7); math.Abs(got-want) > 1e-12 {
		t.Errorf("lossy total %g, want %g", got, want)
	}
}

func TestMZIComplementaryPorts(t *testing.T) {
	// The bar port peaks where the cross port nulls.
	m, _ := NewMZI(1, 1)
	if got := m.BarIntensity(0); got > 1e-12 {
		t.Errorf("bar at φ=0 = %g, want 0", got)
	}
	if got := m.BarIntensity(math.Pi); math.Abs(got-1) > 1e-12 {
		t.Errorf("bar at φ=π = %g, want 1", got)
	}
}

func TestFromILERValidation(t *testing.T) {
	if _, err := FromILER(0, 0.1); err == nil {
		t.Error("zero IL accepted")
	}
	if _, err := FromILER(1.2, 0.1); err == nil {
		t.Error("IL > 1 accepted")
	}
	if _, err := FromILER(0.5, 1); err == nil {
		t.Error("ER fraction 1 accepted")
	}
	if _, err := FromILER(0.5, -0.1); err == nil {
		t.Error("negative ER accepted")
	}
}

func TestMZIValidation(t *testing.T) {
	if _, err := NewMZI(0, 1); err == nil {
		t.Error("zero arm accepted")
	}
	if _, err := NewMZI(1, 1.1); err == nil {
		t.Error("arm > 1 accepted")
	}
}

func TestRandomRingAgreementProperty(t *testing.T) {
	// Random physical rings: field model vs paper formulas.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := 0.5 + 0.499*rng.Float64()
		t2 := 0.5 + 0.499*rng.Float64()
		a := 0.9 + 0.0999*rng.Float64()
		ring, err := NewRing(t1, t2, a)
		if err != nil {
			return false
		}
		ref := optics.Ring{SelfCoupling1: t1, SelfCoupling2: t2, Amplitude: a, ResonanceNM: 1550, FSRNM: 10}
		theta := rng.Float64() * 2 * math.Pi
		lam := 1550 / (1 + theta/(2*math.Pi*ref.ModeOrder())) // invert phase relation approximately
		_ = lam
		through := ring.ThroughIntensity(theta)
		// Evaluate the reference formula directly from cos θ.
		cos := math.Cos(theta)
		num := a*a*t2*t2 - 2*a*t1*t2*cos + t1*t1
		den := 1 - 2*a*t1*t2*cos + a*a*t1*t1*t2*t2
		return math.Abs(through-num/den) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
