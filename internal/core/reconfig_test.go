package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

func TestReconfigurableServesMultipleOrders(t *testing.T) {
	// The conclusion's proposal: one comb at the (order-independent)
	// optimal spacing executes polynomials of several degrees.
	r, err := NewReconfigurable(MRRFirstSpec{}, 0.165, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Orders(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("Orders = %v", got)
	}
	// Each configured circuit is aligned and open-eyed.
	for _, n := range r.Orders() {
		c, err := r.Circuit(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.AlignmentErrorNM() > 1e-3 {
			t.Errorf("order %d misaligned", n)
		}
		if c.EyeOpeningMW() <= 0 {
			t.Errorf("order %d eye closed", n)
		}
	}
	if _, err := r.Circuit(7); err == nil {
		t.Error("unconfigured order accepted")
	}
}

func TestReconfigurableEvaluate(t *testing.T) {
	r, err := NewReconfigurable(MRRFirstSpec{}, 0.165, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Degree-3: the paper's f1; degree-2: an arbitrary representable
	// polynomial.
	f1 := stochastic.PaperF1()
	got, err := r.Evaluate(f1, 0.5, 1<<14, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("f1(0.5) on reconfigurable = %g, want 0.5", got)
	}
	q := stochastic.NewBernstein([]float64{0.9, 0.1, 0.6})
	got2, err := r.Evaluate(q, 0.3, 1<<14, 43)
	if err != nil {
		t.Fatal(err)
	}
	if want := q.Eval(0.3); math.Abs(got2-want) > 0.02 {
		t.Errorf("q(0.3) = %g, want %g", got2, want)
	}
	// Unsupported degree errors cleanly.
	if _, err := r.Evaluate(stochastic.NewBernstein([]float64{0.5}), 0.5, 64, 1); err == nil {
		t.Error("degree-0 accepted")
	}
}

func TestReconfigurableEnergyByOrder(t *testing.T) {
	r, err := NewReconfigurable(MRRFirstSpec{}, 0.165, []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	en := r.EnergyByOrder()
	if len(en) != 3 {
		t.Fatalf("energy map size %d", len(en))
	}
	// Energy grows with order (more MZIs to feed, more probes), and
	// each order's energy at the shared spacing is within a few
	// percent of its own optimum — the reconfigurability argument.
	if !(en[2].TotalPJ() < en[4].TotalPJ() && en[4].TotalPJ() < en[6].TotalPJ()) {
		t.Errorf("energy not increasing with order: %v", en)
	}
	for _, n := range []int{2, 4, 6} {
		opt, err := NewEnergyModel(n).OptimalSpacingCtx(context.Background(), engine.WordParallel, 0.1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		penalty := en[n].TotalPJ()/opt.TotalPJ() - 1
		if penalty > 0.10 {
			t.Errorf("order %d: shared-spacing penalty %.1f%% > 10%%", n, penalty*100)
		}
	}
}

func TestReconfigurableErrors(t *testing.T) {
	if _, err := NewReconfigurable(MRRFirstSpec{}, 0.165, nil); err == nil {
		t.Error("empty order list accepted")
	}
	if _, err := NewReconfigurable(MRRFirstSpec{}, 0.01, []int{2}); err == nil {
		t.Error("infeasible spacing accepted")
	}
}
