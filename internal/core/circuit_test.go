package core

import (
	"math"
	"testing"
)

func paperCircuit(t *testing.T) *Circuit {
	t.Helper()
	c, err := NewCircuit(PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCircuitRejectsInvalid(t *testing.T) {
	p := PaperParams()
	p.Order = 0
	if _, err := NewCircuit(p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMustCircuitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCircuit did not panic")
		}
	}()
	p := PaperParams()
	p.Order = -1
	MustCircuit(p)
}

func TestFilterShiftOrdering(t *testing.T) {
	c := paperCircuit(t)
	// More '1' data bits -> more destructive MZIs -> less pump ->
	// smaller shift (Fig. 3b/c/d).
	s0 := c.FilterShiftNM(0)
	s1 := c.FilterShiftNM(1)
	s2 := c.FilterShiftNM(2)
	if !(s0 > s1 && s1 > s2) {
		t.Errorf("shifts not decreasing: %g %g %g", s0, s1, s2)
	}
	// Weight 0 reaches λ0 (2.1 nm shift), weight 2 parks at λ2
	// (0.1 nm shift) by the §V.A design.
	if math.Abs(s0-2.1) > 0.01 {
		t.Errorf("full shift = %g nm, want ~2.1", s0)
	}
	if math.Abs(s2-0.1) > 0.01 {
		t.Errorf("minimal shift = %g nm, want ~0.1", s2)
	}
}

func TestFilterAlignsToSelectedChannel(t *testing.T) {
	c := paperCircuit(t)
	for w := 0; w <= 2; w++ {
		res := c.FilterResonanceNM(w)
		want := c.P.Lambda(c.SelectedChannel(w))
		if math.Abs(res-want) > 1e-3 {
			t.Errorf("weight %d: filter at %g, channel at %g", w, res, want)
		}
	}
	if got := c.AlignmentErrorNM(); got > 1e-3 {
		t.Errorf("alignment error = %g nm", got)
	}
}

func TestFig5aChannelTotals(t *testing.T) {
	// Fig. 5(a): z=(0,1,0), x1=x2=1 → totals ≈ (0.0002, 0.004, 0.091),
	// received ≈ 0.0952 mW at 1 mW probes. Tolerances allow the ring
	// calibration residual.
	c := paperCircuit(t)
	tot := c.ChannelTotals(2, []int{0, 1, 0})
	if tot[2] < 0.08 || tot[2] > 0.11 {
		t.Errorf("λ2 total = %g, paper 0.091", tot[2])
	}
	if tot[1] < 0.002 || tot[1] > 0.008 {
		t.Errorf("λ1 crosstalk = %g, paper 0.004", tot[1])
	}
	if tot[0] < 0.00005 || tot[0] > 0.001 {
		t.Errorf("λ0 crosstalk = %g, paper 0.0002", tot[0])
	}
	rx := c.ReceivedPowerMW(2, []int{0, 1, 0})
	if rx < 0.085 || rx > 0.115 {
		t.Errorf("received = %g mW, paper 0.0952", rx)
	}
	// Cross-check: received equals probe-weighted channel sum.
	sum := 0.0
	for _, v := range tot {
		sum += v * c.P.ProbePowerMW
	}
	if math.Abs(sum-rx) > 1e-12 {
		t.Errorf("received %g != channel sum %g", rx, sum)
	}
}

func TestFig5bDataOneLevel(t *testing.T) {
	// Fig. 5(b): z=(1,1,0), x1=x2=0 → λ0 total ≈ 0.476, received
	// ≈ 0.482 mW.
	c := paperCircuit(t)
	tot := c.ChannelTotals(0, []int{1, 1, 0})
	if tot[0] < 0.42 || tot[0] > 0.56 {
		t.Errorf("λ0 total = %g, paper 0.476", tot[0])
	}
	rx := c.ReceivedPowerMW(0, []int{1, 1, 0})
	if rx < 0.43 || rx > 0.57 {
		t.Errorf("received = %g mW, paper 0.482", rx)
	}
}

func TestFig5cPowerBands(t *testing.T) {
	// Fig. 5(c): across all (x, z) combinations the received power
	// separates into a '0' band (paper 0.092–0.099 mW) and a '1' band
	// (paper 0.477–0.482 mW).
	c := paperCircuit(t)
	minZ, maxZ, minO, maxO := c.PowerBands()
	if minZ < 0.07 || maxZ > 0.13 {
		t.Errorf("'0' band [%g, %g], paper [0.092, 0.099]", minZ, maxZ)
	}
	if minO < 0.42 || maxO > 0.58 {
		t.Errorf("'1' band [%g, %g], paper [0.477, 0.482]", minO, maxO)
	}
	if maxZ >= minO {
		t.Errorf("bands overlap: maxZero %g >= minOne %g", maxZ, minO)
	}
	// The de-randomizer threshold separates the bands.
	d := c.Decider()
	if d.ThresholdMW <= maxZ || d.ThresholdMW >= minO {
		t.Errorf("threshold %g outside gap (%g, %g)", d.ThresholdMW, maxZ, minO)
	}
	if eye := c.EyeOpeningMW(); math.Abs(eye-(minO-maxZ)) > 1e-12 {
		t.Errorf("eye opening %g inconsistent", eye)
	}
}

func TestProbeTransmissionPanicsOnBadZ(t *testing.T) {
	c := paperCircuit(t)
	defer func() {
		if recover() == nil {
			t.Error("short z did not panic")
		}
	}()
	c.ProbeTransmission(0, []int{1}, 0)
}

func TestProbeTransmissionPhysicalBounds(t *testing.T) {
	c := paperCircuit(t)
	for w := 0; w <= 2; w++ {
		d := c.FilterShiftNM(w)
		for pattern := 0; pattern < 8; pattern++ {
			z := []int{pattern & 1, pattern >> 1 & 1, pattern >> 2 & 1}
			for i := 0; i <= 2; i++ {
				tr := c.ProbeTransmission(i, z, d)
				if tr < 0 || tr > 1 {
					t.Fatalf("transmission %g outside [0,1] (i=%d z=%v w=%d)", tr, i, z, w)
				}
			}
		}
	}
}

func TestSelectedChannelMatchesReSCSemantics(t *testing.T) {
	// weight w of ones must select coefficient z_w, exactly like the
	// electronic ReSC multiplexer (paper Fig. 1 vs Fig. 3).
	c := paperCircuit(t)
	for w := 0; w <= c.P.Order; w++ {
		if got := c.SelectedChannel(w); got != w {
			t.Errorf("weight %d selects channel %d", w, got)
		}
	}
}

func TestSelectedChannelDominatesReceivedPower(t *testing.T) {
	// When only the selected coefficient is '1', its channel must
	// dominate the received power in every data state.
	c := paperCircuit(t)
	for w := 0; w <= 2; w++ {
		z := []int{0, 0, 0}
		z[w] = 1
		tot := c.ChannelTotals(w, z)
		for i, v := range tot {
			if i != w && v >= tot[w] {
				t.Errorf("weight %d: channel %d (%g) >= selected %d (%g)", w, i, v, w, tot[w])
			}
		}
	}
}

func TestHigherOrderCircuit(t *testing.T) {
	// A 6th-order circuit (the gamma-correction workload) must build
	// and keep its bands separated.
	spec := MRRFirstSpec{Order: 6, WLSpacingNM: 0.3}
	p, err := MRRFirst(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AlignmentErrorNM(); got > 1e-3 {
		t.Errorf("order-6 alignment error = %g nm", got)
	}
	if eye := c.EyeOpeningMW(); eye <= 0 {
		t.Errorf("order-6 eye closed: %g", eye)
	}
}
