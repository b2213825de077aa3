package optics

import (
	"math"
	"strings"
	"testing"
)

func TestUnitConversions(t *testing.T) {
	if got := LossToLinear(4.5); math.Abs(got-0.35481) > 1e-4 {
		t.Errorf("LossToLinear(4.5) = %g", got)
	}
	if got := ExtinctionToLinear(13.22); math.Abs(got-0.04764) > 1e-4 {
		t.Errorf("ExtinctionToLinear(13.22) = %g", got)
	}
	if got := DBToLinear(3.0103); math.Abs(got-2) > 1e-4 {
		t.Errorf("DBToLinear(3.0103) = %g", got)
	}
	if got := LinearToDB(2); math.Abs(got-3.0103) > 1e-4 {
		t.Errorf("LinearToDB(2) = %g", got)
	}
}

func TestEnergyHelpers(t *testing.T) {
	// 1 mW for 1 ns = 1 pJ.
	if got := EnergyPJ(1, 1e-9); math.Abs(got-1) > 1e-12 {
		t.Errorf("EnergyPJ = %g", got)
	}
	if got := EnergyJ(1000, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("EnergyJ = %g", got)
	}
	if got := WattsToMilliwatts(MilliwattsToWatts(5)); math.Abs(got-5) > 1e-12 {
		t.Errorf("mW round trip = %g", got)
	}
}

func TestSplitterCombiner(t *testing.T) {
	s := Splitter{Ports: 4, ExcessLossDB: 3.0103}
	c := Combiner{Ports: 3}
	if got := c.ExcessLossFraction(); got != 1 {
		t.Errorf("ideal combiner = %g", got)
	}
	if !strings.Contains(s.String(), "1:4") || !strings.Contains(c.String(), "3:1") {
		t.Error("String formatting")
	}
}

func TestBPF(t *testing.T) {
	f := BandPassFilter{CenterNM: 1549, BandwidthNM: 4, InBandLossDB: 0.5, RejectionDB: 40}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	in := f.Transmission(1548)
	out := f.Transmission(1540)
	if math.Abs(in-LossToLinear(0.5)) > 1e-12 {
		t.Errorf("in-band transmission = %g", in)
	}
	if math.Abs(out-1e-4) > 1e-8 {
		t.Errorf("stop-band transmission = %g, want 1e-4", out)
	}
}

func TestBPFValidate(t *testing.T) {
	bad := []BandPassFilter{
		{CenterNM: 1550, BandwidthNM: 0},
		{CenterNM: 1550, BandwidthNM: 1, InBandLossDB: -1},
		{CenterNM: 1550, BandwidthNM: 1, InBandLossDB: 3, RejectionDB: 2},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad BPF %d accepted", i)
		}
	}
}

func TestPumpRejectionSuppressesLeakage(t *testing.T) {
	// The model-level justification for the paper neglecting the BPF:
	// a 40 dB rejection knocks a 600 mW pump to 0.06 mW, below the
	// '0'-level band of Fig. 5(c).
	f := BandPassFilter{CenterNM: 1549, BandwidthNM: 4, RejectionDB: 40}
	leak := 600 * f.Transmission(1540.1)
	if leak > 0.092 {
		t.Errorf("pump leakage %g mW would corrupt the '0' band", leak)
	}
}

func TestSampleSpectrum(t *testing.T) {
	r := testRing()
	drop := func(l float64) float64 { return r.Drop(l, r.ResonanceNM) }
	pts := SampleSpectrum(drop, 1548, 1552, 101)
	if len(pts) != 101 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].WavelengthNM != 1548 || pts[100].WavelengthNM != 1552 {
		t.Error("endpoints wrong")
	}
	// Peak should be near 1550.
	best := 0
	for i, p := range pts {
		if p.Transmission > pts[best].Transmission {
			best = i
		}
	}
	if math.Abs(pts[best].WavelengthNM-1550) > 0.05 {
		t.Errorf("peak at %g", pts[best].WavelengthNM)
	}
	// Degenerate sample count clamps to 2.
	if got := SampleSpectrum(drop, 1548, 1552, 1); len(got) != 2 {
		t.Errorf("clamped len = %d", len(got))
	}
}

func TestRenderSpectrumASCII(t *testing.T) {
	r := testRing()
	var sb strings.Builder
	series := map[rune][]SpectrumPoint{
		'*': SampleSpectrum(func(l float64) float64 { return r.Drop(l, r.ResonanceNM) }, 1548, 1552, 200),
	}
	if err := RenderSpectrumASCII(&sb, series, 60, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "1.0") {
		t.Errorf("render output missing content:\n%s", out)
	}
	if err := RenderSpectrumASCII(&sb, map[rune][]SpectrumPoint{}, 60, 10); err == nil {
		t.Error("empty render accepted")
	}
}
