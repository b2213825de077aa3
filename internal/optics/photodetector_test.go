package optics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPhotodetectorSNRLinearity(t *testing.T) {
	p := Photodetector{ResponsivityAPerW: 1, NoiseCurrentA: 1e-5}
	s1 := p.SNR(0.1)
	s2 := p.SNR(0.2)
	if math.Abs(s2-2*s1) > 1e-9 {
		t.Errorf("SNR not linear in power: %g vs %g", s1, s2)
	}
}

func TestPhotodetectorMinPowerRoundTrip(t *testing.T) {
	p := Photodetector{ResponsivityAPerW: 0.8, NoiseCurrentA: 1.5e-5}
	for _, snr := range []float64{1, 9.5, 100} {
		pw := p.MinPowerForSNRMW(snr)
		if got := p.SNR(pw); math.Abs(got-snr) > 1e-9 {
			t.Errorf("SNR(MinPower(%g)) = %g", snr, got)
		}
	}
}

func TestPhotodetectorValidate(t *testing.T) {
	if err := (Photodetector{ResponsivityAPerW: 1, NoiseCurrentA: 1e-6}).Validate(); err != nil {
		t.Errorf("valid detector rejected: %v", err)
	}
	if err := (Photodetector{ResponsivityAPerW: 0, NoiseCurrentA: 1e-6}).Validate(); err == nil {
		t.Error("zero responsivity accepted")
	}
	if err := (Photodetector{ResponsivityAPerW: 1, NoiseCurrentA: 0}).Validate(); err == nil {
		t.Error("zero noise accepted")
	}
	for _, d := range []Photodetector{
		{ResponsivityAPerW: math.NaN(), NoiseCurrentA: 1e-6},
		{ResponsivityAPerW: math.Inf(1), NoiseCurrentA: 1e-6},
		{ResponsivityAPerW: 1, NoiseCurrentA: math.NaN()},
		{ResponsivityAPerW: 1, NoiseCurrentA: math.Inf(1)},
	} {
		if err := d.Validate(); err == nil {
			t.Errorf("responsivity %g A/W, noise %g A accepted", d.ResponsivityAPerW, d.NoiseCurrentA)
		}
	}
}

func TestBERFromSNRKnownPoints(t *testing.T) {
	// SNR -> BER via Eq. (9). For BER 1e-6 the required SNR is
	// 2*sqrt(2)*erfcinv(2e-6) ≈ 9.507.
	snr := SNRForBER(1e-6)
	if math.Abs(snr-9.507) > 0.01 {
		t.Errorf("SNRForBER(1e-6) = %g, want ~9.507", snr)
	}
	if ber := BERFromSNR(snr); math.Abs(ber-1e-6)/1e-6 > 1e-6 {
		t.Errorf("BERFromSNR round trip = %g", ber)
	}
}

func TestBERHalvedPowerObservation(t *testing.T) {
	// Fig. 6(b): BER target 1e-2 needs ~half the SNR (hence probe
	// power) of 1e-6.
	ratio := SNRForBER(1e-2) / SNRForBER(1e-6)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("SNR ratio 1e-2/1e-6 = %g, want ~0.5", ratio)
	}
}

func TestBERDegenerateInputs(t *testing.T) {
	if got := BERFromSNR(0); got != 0.5 {
		t.Errorf("BER at zero SNR = %g, want 0.5", got)
	}
	if got := BERFromSNR(-3); got != 0.5 {
		t.Errorf("BER at negative SNR = %g, want 0.5", got)
	}
	if got := SNRForBER(0.5); got != 0 {
		t.Errorf("SNR for BER 0.5 = %g, want 0", got)
	}
	if got := SNRForBER(0.9); got != 0 {
		t.Errorf("SNR for BER 0.9 = %g, want 0", got)
	}
}

func TestBERMonotoneProperty(t *testing.T) {
	// Higher SNR always means lower BER.
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		a, b = math.Mod(a, 30), math.Mod(b, 30)
		if a == b {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return BERFromSNR(hi) <= BERFromSNR(lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOOKDecider(t *testing.T) {
	d := NewMidpointDecider(0.099, 0.477)
	if d.ThresholdMW != (0.099+0.477)/2 {
		t.Errorf("threshold = %g", d.ThresholdMW)
	}
}

func TestEyeOpening(t *testing.T) {
	if got := EyeOpeningMW(0.099, 0.477); math.Abs(got-0.378) > 1e-12 {
		t.Errorf("eye opening = %g", got)
	}
	if got := EyeOpeningMW(0.5, 0.4); got >= 0 {
		t.Errorf("closed eye not negative: %g", got)
	}
}
