package core

import (
	"math"
	"strings"
	"testing"
)

func TestLinkBudgetConsistency(t *testing.T) {
	c := paperCircuit(t)
	lb := c.ComputeLinkBudget()
	if len(lb.Probe) < 5 {
		t.Fatalf("probe path has %d stages", len(lb.Probe))
	}
	// Cumulative powers are non-increasing (passive stages).
	for i := 1; i < len(lb.Probe); i++ {
		if lb.Probe[i].CumulativePowerMW > lb.Probe[i-1].CumulativePowerMW+1e-12 {
			t.Errorf("stage %q gained power", lb.Probe[i].Name)
		}
		if lb.Probe[i].LossDB < -1e-9 {
			t.Errorf("stage %q has negative loss %g", lb.Probe[i].Name, lb.Probe[i].LossDB)
		}
	}
	// The detected power matches the transmission model's signal
	// level up to the BPF loss (the model neglects the BPF).
	_, worst := c.WorstCaseDelta()
	z := make([]int, c.P.Order+1)
	z[worst] = 1
	sig := c.P.ProbePowerMW * c.ProbeTransmission(worst, z, c.FilterShiftNM(worst))
	// The budget parks the filter exactly on the channel while the
	// designed circuit has a ~5e-5 nm residual alignment error, so
	// the two agree to ~1e-6 relative (after the budget-only BPF and
	// routing stages are factored in).
	extra := BudgetBPF.Transmission(c.P.Lambda(worst)) * BudgetRouting.Transmission()
	if got := lb.Probe[len(lb.Probe)-1].CumulativePowerMW; math.Abs(got-sig*extra)/(sig*extra) > 1e-5 {
		t.Errorf("detected %g, transmission model × BPF × routing gives %g", got, sig*extra)
	}
}

func TestLinkBudgetPumpPath(t *testing.T) {
	c := paperCircuit(t)
	lb := c.ComputeLinkBudget()
	// The control power equals pump × IL% for the all-constructive
	// state (Eq. 7b), ≈ 210 mW for the paper design.
	want := c.P.PumpPowerMW * c.P.MZI.ILFraction()
	control := lb.Pump[len(lb.Pump)-1].CumulativePowerMW
	if math.Abs(control-want)/want > 1e-9 {
		t.Errorf("control power %g, want %g", control, want)
	}
	if math.Abs(control-210) > 1 {
		t.Errorf("control power %g mW, expected ~210 (2.1 nm / OTE)", control)
	}
}

func TestLinkBudgetRender(t *testing.T) {
	c := paperCircuit(t)
	var sb strings.Builder
	if err := c.ComputeLinkBudget().Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"probe path", "pump path", "modulator MRR0", "filter drop", "BPF"} {
		if !strings.Contains(out, want) {
			t.Errorf("budget output missing %q", want)
		}
	}
}
